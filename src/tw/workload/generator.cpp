#include "tw/workload/generator.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "tw/common/assert.hpp"
#include "tw/common/bits.hpp"

namespace tw::workload {
namespace {

// Address-space layout: each core owns a private region; one shared
// region is common to all cores. Regions are spaced far apart so they
// never alias (the store is sparse; capacity is not enforced here).
constexpr Addr kPrivateBase = 0x0000'0001'0000'0000ull;
constexpr Addr kPrivateStride = 0x0000'0001'0000'0000ull;
constexpr Addr kSharedBase = 0x0000'1000'0000'0000ull;

}  // namespace

TraceGenerator::TraceGenerator(const WorkloadProfile& profile,
                               const pcm::GeometryParams& geometry,
                               u32 cores, u64 seed)
    : profile_(profile),
      line_bytes_(geometry.cache_line_bytes),
      units_per_line_(geometry.units_per_line()),
      unit_bits_(geometry.data_unit_bits),
      shared_frac_(shared_fraction(profile.sharing)),
      sets_(profile.mean_sets),
      resets_(profile.mean_resets),
      in_burst_(cores, false) {
  TW_EXPECTS(cores >= 1);
  TW_EXPECTS(profile.burstiness >= 0.0 && profile.burstiness <= 1.0);
  TW_EXPECTS(profile.mem_ops_per_kilo() > 0.0);
  SplitMix64 sm(seed ^ 0xC0FFEE1234ull);
  core_rng_.reserve(cores);
  for (u32 c = 0; c < cores; ++c) core_rng_.emplace_back(sm.next());
}

TraceOp TraceGenerator::next(u32 core) {
  TW_EXPECTS(core < core_rng_.size());
  Rng& rng = core_rng_[core];

  TraceOp op;
  const double mean_gap = 1000.0 / profile_.mem_ops_per_kilo();
  op.gap = modulate_gap(rng.geometric(std::max(1.0, mean_gap)), core, rng);
  op.is_write = rng.chance(profile_.write_fraction());
  op.addr = pick_address(core, rng);
  return op;
}

u64 TraceGenerator::modulate_gap(u64 gap, u32 core, Rng& rng) {
  const double b = profile_.burstiness;
  if (b <= 0.0) return gap;
  // Two-state ON/OFF modulation: ON periods run 8x the rate; the duty
  // cycle is b/4 and OFF gaps stretch so the long-run average rate (and
  // so RPKI/WPKI) is preserved:
  //   duty/8 + (1-duty)*stretch = 1.
  constexpr double kSpeedup = 8.0;
  constexpr double kBurstLength = 32.0;  // mean ops per ON period
  const double duty = 0.25 * b;
  const double p_exit = 1.0 / kBurstLength;
  const double p_enter = p_exit * duty / (1.0 - duty);
  const bool burst = in_burst_[core];
  if (burst) {
    if (rng.chance(p_exit)) in_burst_[core] = false;
  } else {
    if (rng.chance(p_enter)) in_burst_[core] = true;
  }
  if (burst) {
    const u64 g = static_cast<u64>(static_cast<double>(gap) / kSpeedup);
    return g == 0 ? 1 : g;
  }
  const double stretch = (1.0 - duty / kSpeedup) / (1.0 - duty);
  return static_cast<u64>(static_cast<double>(gap) * stretch);
}

Addr TraceGenerator::pick_address(u32 core, Rng& rng) {
  const u64 line = rng.below(profile_.working_set_lines);
  Addr base;
  if (rng.chance(shared_frac_)) {
    base = kSharedBase;
  } else {
    base = kPrivateBase + core * kPrivateStride;
  }
  return base + line * line_bytes_;
}

namespace {

// Partial Fisher-Yates over the ascending positions of the set bits of
// `bits`: returns the mask of `k` of them chosen uniformly.
u64 choose_bits(u64 bits, u32 k, Rng& rng) {
  std::array<u8, 64> pos{};
  u32 n = 0;
  for (; bits != 0; bits &= bits - 1) {
    pos[n++] = static_cast<u8>(std::countr_zero(bits));
  }
  u64 chosen = 0;
  for (u32 i = 0; i < k; ++i) {
    const u32 j = i + static_cast<u32>(rng.below(n - i));
    std::swap(pos[i], pos[j]);
    chosen |= u64{1} << pos[i];
  }
  return chosen;
}

}  // namespace

u64 mutate_unit(u64 logical, u32 unit_bits, const PoissonSampler& sets,
                const PoissonSampler& resets, Rng& rng) {
  TW_EXPECTS(unit_bits >= 1 && unit_bits <= 64);
  const u64 mask = low_mask(unit_bits);
  logical &= mask;
  const u32 no = popcount(logical);
  const u32 nz = unit_bits - no;

  // Both counts are drawn before any position: choosing positions is
  // what consumes the rest of the stream, zeros first.
  const u32 n_set = std::min(static_cast<u32>(sets(rng)), nz);
  const u32 n_reset = std::min(static_cast<u32>(resets(rng)), no);
  const u64 raise = n_set == 0 ? 0 : choose_bits(~logical & mask, n_set, rng);
  const u64 clear = n_reset == 0 ? 0 : choose_bits(logical, n_reset, rng);
  return (logical | raise) & ~clear;
}

u64 TraceGenerator::compressible_unit(Rng& rng) {
  // Narrow value: a random payload in the low half, sign-extended into a
  // constant high half. Exactly what word-level compressors (and the
  // coset encoder) are built to exploit.
  const u32 half = unit_bits_ / 2;
  const u64 payload = rng.next() & low_mask(half);
  const u64 high = low_mask(unit_bits_) ^ low_mask(half);
  return rng.chance(0.5) ? (payload | high) : payload;
}

u64 TraceGenerator::zipf_byte_unit(Rng& rng) {
  // Bytes drawn from a skewed 256-symbol alphabet: u^3 concentrates mass
  // on small byte values (text/pointer-like content) without a costly
  // true-Zipf sampler.
  u64 w = 0;
  const u32 bytes = (unit_bits_ + 7) / 8;
  for (u32 b = 0; b < bytes; ++b) {
    const double u = rng.uniform();
    const u64 byte = static_cast<u64>(255.0 * u * u * u);
    w |= byte << (8 * b);
  }
  return w & low_mask(unit_bits_);
}

u64 TraceGenerator::adversarial_unit(u64 logical, Rng& rng) {
  // Anti-code: flip exactly half the bits of the stored word. Hamming
  // distance bits/2 is the worst case for inversion coding (flip saves
  // nothing) and defeats narrow-value compression on average.
  const u32 n = unit_bits_ / 2;
  std::array<u8, 64> pos{};
  for (u32 b = 0; b < unit_bits_; ++b) pos[b] = static_cast<u8>(b);
  u64 w = logical & low_mask(unit_bits_);
  for (u32 i = 0; i < n; ++i) {
    const u32 j = i + static_cast<u32>(rng.below(unit_bits_ - i));
    std::swap(pos[i], pos[j]);
    w ^= u64{1} << pos[i];
  }
  return w;
}

pcm::LogicalLine TraceGenerator::make_write_data(Addr addr,
                                                 mem::DataStore& store,
                                                 u32 core) {
  TW_EXPECTS(core < core_rng_.size());
  Rng& rng = core_rng_[core];
  pcm::LogicalLine next(units_per_line_);

  switch (profile_.content) {
    case ContentClass::kCompressible:
      for (u32 u = 0; u < units_per_line_; ++u) {
        next.set_word(u, compressible_unit(rng));
      }
      return next;
    case ContentClass::kZipfByte:
      for (u32 u = 0; u < units_per_line_; ++u) {
        next.set_word(u, zipf_byte_unit(rng));
      }
      return next;
    case ContentClass::kAdversarial: {
      pcm::LogicalLine current = store.read_logical(addr);
      for (u32 u = 0; u < units_per_line_; ++u) {
        next.set_word(u, adversarial_unit(current.word(u), rng));
      }
      return next;
    }
    case ContentClass::kMutate:
      break;  // the calibrated default below
  }

  if (rng.chance(profile_.line_rewrite_prob)) {
    // Full-line rewrite: fresh content, ~half the cells change. This is
    // the heavy tail of real write traces (decoded frames, storage
    // streams) and what exercises the Flip-N-Write inversion path.
    const u64 mask = low_mask(unit_bits_);
    for (u32 u = 0; u < units_per_line_; ++u) {
      next.set_word(u, rng.next() & mask);
    }
    return next;
  }

  pcm::LogicalLine current = store.read_logical(addr);
  for (u32 u = 0; u < units_per_line_; ++u) {
    next.set_word(
        u, mutate_unit(current.word(u), unit_bits_, sets_, resets_, rng));
  }
  return next;
}

}  // namespace tw::workload

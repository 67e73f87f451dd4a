#pragma once
// Frozen pre-fast-path write-payload mutation (the seed's exact
// TraceGenerator::mutate_unit and Rng::poisson loop), kept verbatim as an
// independent oracle: tests/workload_test.cpp locks the shipped
// workload::mutate_unit against it for the output word *and* the RNG
// state afterwards, so a change of draw order cannot hide behind
// statistically equivalent payloads.
//
// Deliberately unoptimized: a per-bit scan collecting zero and one
// positions, and exp(-lambda) recomputed on every draw. Do not "fix" or
// speed up this file; re-freeze it only when the payload stream is meant
// to change.

#include <algorithm>
#include <array>
#include <cmath>

#include "tw/common/bits.hpp"
#include "tw/common/rng.hpp"

namespace tw::testref {

inline u64 reference_poisson(Rng& rng, double lambda) {
  if (lambda <= 0.0) return 0;
  if (lambda < 30.0) {
    const double limit = std::exp(-lambda);
    u64 k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= rng.uniform();
    } while (p > limit);
    return k - 1;
  }
  const double g = rng.gaussian() * std::sqrt(lambda) + lambda;
  return g < 0.0 ? 0 : static_cast<u64>(g + 0.5);
}

inline u64 reference_mutate_unit(u64 logical, u32 unit_bits, double mean_sets,
                                 double mean_resets, Rng& rng) {
  const u64 mask = low_mask(unit_bits);
  logical &= mask;

  // Collect zero and one bit positions.
  std::array<u8, 64> zeros{};
  std::array<u8, 64> ones{};
  u32 nz = 0, no = 0;
  for (u32 b = 0; b < unit_bits; ++b) {
    if (get_bit(logical, b)) {
      ones[no++] = static_cast<u8>(b);
    } else {
      zeros[nz++] = static_cast<u8>(b);
    }
  }

  u32 n_set = static_cast<u32>(reference_poisson(rng, mean_sets));
  u32 n_reset = static_cast<u32>(reference_poisson(rng, mean_resets));
  n_set = std::min(n_set, nz);
  n_reset = std::min(n_reset, no);

  // Partial Fisher-Yates: choose n_set zero positions to raise.
  for (u32 i = 0; i < n_set; ++i) {
    const u32 j = i + static_cast<u32>(rng.below(nz - i));
    std::swap(zeros[i], zeros[j]);
    logical = with_bit(logical, zeros[i], true);
  }
  for (u32 i = 0; i < n_reset; ++i) {
    const u32 j = i + static_cast<u32>(rng.below(no - i));
    std::swap(ones[i], ones[j]);
    logical = with_bit(logical, ones[i], false);
  }
  return logical;
}

}  // namespace tw::testref

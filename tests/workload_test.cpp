// Unit tests for the workload substrate: Table III profiles, the Fig. 3
// calibration of the trace generator, and trace record/replay.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "tw/common/bits.hpp"
#include "tw/core/read_stage.hpp"
#include "tw/stats/accumulator.hpp"
#include "tw/workload/generator.hpp"
#include "tw/workload/profiles.hpp"
#include "tw/workload/trace_io.hpp"
#include "reference_mutate.hpp"

namespace tw::workload {
namespace {

// --------------------------------------------------------------- profiles --
TEST(Profiles, EightParsecWorkloads) {
  const auto& all = parsec_profiles();
  ASSERT_EQ(all.size(), 8u);
  EXPECT_EQ(all[0].name, "blackscholes");
  EXPECT_EQ(all[7].name, "vips");
}

TEST(Profiles, TableIIIRates) {
  EXPECT_DOUBLE_EQ(profile_by_name("blackscholes").rpki, 0.04);
  EXPECT_DOUBLE_EQ(profile_by_name("blackscholes").wpki, 0.02);
  EXPECT_DOUBLE_EQ(profile_by_name("canneal").rpki, 2.76);
  EXPECT_DOUBLE_EQ(profile_by_name("vips").wpki, 1.56);
  EXPECT_DOUBLE_EQ(profile_by_name("ferret").rpki, 1.67);
}

TEST(Profiles, Figure3Constraints) {
  // The paper's stated anchors: ~9.6 average changed bits (2.9 R + 6.7 S),
  // blackscholes ~2, vips ~19, vips/ferret near fifty-fifty.
  double sum_r = 0, sum_s = 0;
  for (const auto& p : parsec_profiles()) {
    sum_r += p.fig3_resets;
    sum_s += p.fig3_sets;
  }
  EXPECT_NEAR(sum_r / 8.0, 2.9, 0.45);
  EXPECT_NEAR(sum_s / 8.0, 6.7, 0.7);
  EXPECT_NEAR((sum_r + sum_s) / 8.0, 9.6, 1.0);

  const auto& bs = profile_by_name("blackscholes");
  EXPECT_NEAR(bs.mean_changed_bits(), 2.0, 0.5);
  const auto& vips = profile_by_name("vips");
  EXPECT_NEAR(vips.mean_changed_bits(), 19.0, 1.0);
  // fifty-fifty-ish outliers.
  EXPECT_GT(vips.fig3_resets / vips.fig3_sets, 0.6);
  const auto& ferret = profile_by_name("ferret");
  EXPECT_GT(ferret.fig3_resets / ferret.fig3_sets, 0.6);
  // The rest are SET-dominant.
  EXPECT_LT(profile_by_name("bodytrack").fig3_resets /
                profile_by_name("bodytrack").fig3_sets,
            0.5);
}

TEST(Profiles, UnknownNameThrows) {
  EXPECT_THROW(profile_by_name("doom"), ContractViolation);
}

TEST(Profiles, FindDoesNotThrow) {
  EXPECT_EQ(find_profile("doom"), nullptr);
  for (const auto& p : parsec_profiles()) EXPECT_EQ(find_profile(p.name), &p);
}

TEST(Profiles, SharedFractionMonotone) {
  EXPECT_LT(shared_fraction(Level::kLow), shared_fraction(Level::kMedium));
  EXPECT_LT(shared_fraction(Level::kMedium),
            shared_fraction(Level::kHigh));
}

// -------------------------------------------------------------- generator --
TEST(Generator, Deterministic) {
  const auto& p = profile_by_name("ferret");
  const pcm::GeometryParams g;
  TraceGenerator a(p, g, 2, 99), b(p, g, 2, 99);
  for (int i = 0; i < 200; ++i) {
    const TraceOp oa = a.next(0);
    const TraceOp ob = b.next(0);
    EXPECT_EQ(oa.gap, ob.gap);
    EXPECT_EQ(oa.addr, ob.addr);
    EXPECT_EQ(oa.is_write, ob.is_write);
  }
}

TEST(Generator, GapMatchesRpkiWpki) {
  const auto& p = profile_by_name("canneal");  // 2.95 ops/kilo
  TraceGenerator gen(p, pcm::GeometryParams{}, 1, 5);
  stats::Accumulator gaps;
  for (int i = 0; i < 20000; ++i) gaps.add(static_cast<double>(gen.next(0).gap));
  EXPECT_NEAR(gaps.mean(), 1000.0 / (2.76 + 0.19), 15.0);
}

TEST(Generator, WriteFractionMatchesProfile) {
  const auto& p = profile_by_name("vips");
  TraceGenerator gen(p, pcm::GeometryParams{}, 1, 5);
  u32 writes = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) writes += gen.next(0).is_write;
  EXPECT_NEAR(static_cast<double>(writes) / n, 1.56 / (2.56 + 1.56), 0.02);
}

TEST(Generator, AddressesLineAlignedAndCoreSeparated) {
  const auto& p = profile_by_name("blackscholes");  // low sharing
  TraceGenerator gen(p, pcm::GeometryParams{}, 2, 5);
  for (int i = 0; i < 500; ++i) {
    const TraceOp a = gen.next(0);
    EXPECT_EQ(a.addr % 64, 0u);
  }
}

TEST(Generator, SharingLevelControlsOverlap) {
  const pcm::GeometryParams g;
  auto overlap_fraction = [&](const WorkloadProfile& p) {
    TraceGenerator gen(p, g, 2, 5);
    u32 shared = 0;
    const int n = 5000;
    for (int i = 0; i < n; ++i) {
      // Shared region lives above 0x1000'0000'0000.
      if (gen.next(0).addr >= 0x0000'1000'0000'0000ull) ++shared;
    }
    return static_cast<double>(shared) / n;
  };
  EXPECT_LT(overlap_fraction(profile_by_name("blackscholes")), 0.10);
  EXPECT_GT(overlap_fraction(profile_by_name("ferret")), 0.40);
}

// The central calibration test: when the generator's writes are measured
// by the Tetris read stage (the same code the schemes use), the per-unit
// RESET/SET counts must reproduce the Figure 3 targets.
class Fig3Calibration : public ::testing::TestWithParam<const char*> {};

TEST_P(Fig3Calibration, MeasuredTransitionsMatchProfile) {
  const auto& p = profile_by_name(GetParam());
  const pcm::GeometryParams g;
  mem::DataStore store(g.units_per_line(), 77, p.initial_ones_fraction);
  TraceGenerator gen(p, g, 1, 31337);

  stats::Accumulator sets, resets;
  int writes_measured = 0;
  // Exercise a realistic reuse pattern: repeatedly write lines from a
  // modest pool so lines see several writes each.
  for (int i = 0; i < 4000; ++i) {
    TraceOp op = gen.next(0);
    if (!op.is_write) continue;
    const pcm::LogicalLine next = gen.make_write_data(op.addr, store, 0);
    pcm::LineBuf& line = store.line(op.addr);
    const core::ReadStageResult rs = core::read_stage(line, next, 64);
    for (const auto& c : rs.counts) {
      // Exclude the tag pulse to mirror Fig. 3's per-data-unit counts.
      sets.add(static_cast<double>(c.n1));
      resets.add(static_cast<double>(c.n0));
    }
    schemes::apply_plans(line, rs.plans);
    ++writes_measured;
  }
  ASSERT_GT(writes_measured, 10);
  // 30% tolerance: tag cells, clamping and flips perturb the raw targets.
  EXPECT_NEAR(sets.mean(), p.fig3_sets, p.fig3_sets * 0.30 + 0.4);
  EXPECT_NEAR(resets.mean(), p.fig3_resets, p.fig3_resets * 0.30 + 0.4);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, Fig3Calibration,
    ::testing::Values("blackscholes", "bodytrack", "canneal", "dedup",
                      "ferret", "freqmine", "swaptions", "vips"));

TEST(Generator, BurstinessPreservesRate) {
  WorkloadProfile p = profile_by_name("vips");
  p.burstiness = 1.0;
  TraceGenerator smooth(profile_by_name("vips"), pcm::GeometryParams{}, 1,
                        5);
  TraceGenerator bursty(p, pcm::GeometryParams{}, 1, 5);

  // Count requests per fixed instruction window: burstiness shows up as
  // over-dispersion of the arrival counts, at the same long-run rate.
  auto dispersion = [](TraceGenerator& gen, double* mean_gap) {
    constexpr u64 kWindow = 20'000;  // instructions
    stats::Accumulator counts, gaps;
    u64 in_window = 0, pos = 0;
    for (int i = 0; i < 40000; ++i) {
      const u64 gap = gen.next(0).gap;
      gaps.add(static_cast<double>(gap));
      pos += gap;
      while (pos >= kWindow) {
        counts.add(static_cast<double>(in_window));
        in_window = 0;
        pos -= kWindow;
      }
      ++in_window;
    }
    *mean_gap = gaps.mean();
    return counts.variance() / counts.mean();
  };
  double mean_smooth = 0, mean_bursty = 0;
  const double d_smooth = dispersion(smooth, &mean_smooth);
  const double d_bursty = dispersion(bursty, &mean_bursty);
  // Same long-run rate (mean gap) within 10%...
  EXPECT_NEAR(mean_bursty, mean_smooth, mean_smooth * 0.10);
  // ...but clearly over-dispersed arrivals.
  EXPECT_GT(d_bursty, 2.0 * d_smooth);
}

TEST(Generator, BurstinessZeroIsUnchanged) {
  const auto& base = profile_by_name("ferret");
  WorkloadProfile p = base;
  p.burstiness = 0.0;
  TraceGenerator a(base, pcm::GeometryParams{}, 1, 9);
  TraceGenerator b(p, pcm::GeometryParams{}, 1, 9);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.next(0).gap, b.next(0).gap);
  }
}

// --------------------------------------------------------- content classes --
TEST(ContentClass, Names) {
  EXPECT_STREQ(content_class_name(ContentClass::kMutate), "mutate");
  EXPECT_STREQ(content_class_name(ContentClass::kCompressible),
               "compressible");
  EXPECT_STREQ(content_class_name(ContentClass::kZipfByte), "zipf");
  EXPECT_STREQ(content_class_name(ContentClass::kAdversarial),
               "adversarial");
}

TEST(ContentClass, MutateDefaultIsBitIdentical) {
  // Adding the content axis must not disturb the calibrated default.
  const auto& base = profile_by_name("ferret");
  WorkloadProfile p = base;
  p.content = ContentClass::kMutate;
  const pcm::GeometryParams g;
  mem::DataStore sa(g.units_per_line(), 7, 0.5);
  mem::DataStore sb(g.units_per_line(), 7, 0.5);
  TraceGenerator a(base, g, 1, 13), b(p, g, 1, 13);
  for (int i = 0; i < 100; ++i) {
    const TraceOp oa = a.next(0);
    const TraceOp ob = b.next(0);
    ASSERT_EQ(oa.addr, ob.addr);
    EXPECT_EQ(a.make_write_data(oa.addr, sa, 0),
              b.make_write_data(ob.addr, sb, 0));
  }
}

TEST(ContentClass, CompressibleHighHalfConstant) {
  WorkloadProfile p = profile_by_name("vips");
  p.content = ContentClass::kCompressible;
  const pcm::GeometryParams g;
  mem::DataStore store(g.units_per_line(), 7, 0.5);
  TraceGenerator gen(p, g, 1, 21);
  const u32 bits = g.data_unit_bits;
  const u64 high = low_mask(bits) ^ low_mask(bits / 2);
  for (int i = 0; i < 200; ++i) {
    const TraceOp op = gen.next(0);
    const pcm::LogicalLine next = gen.make_write_data(op.addr, store, 0);
    for (u32 u = 0; u < g.units_per_line(); ++u) {
      const u64 top = next.word(u) & high;
      EXPECT_TRUE(top == 0 || top == high) << std::hex << next.word(u);
    }
  }
}

TEST(ContentClass, ZipfByteSkewsLow) {
  WorkloadProfile p = profile_by_name("vips");
  p.content = ContentClass::kZipfByte;
  const pcm::GeometryParams g;
  mem::DataStore store(g.units_per_line(), 7, 0.5);
  TraceGenerator gen(p, g, 1, 22);
  u64 low_bytes = 0, total = 0;
  for (int i = 0; i < 200; ++i) {
    const TraceOp op = gen.next(0);
    const pcm::LogicalLine next = gen.make_write_data(op.addr, store, 0);
    for (u32 u = 0; u < g.units_per_line(); ++u) {
      for (u32 b = 0; b < g.data_unit_bits / 8; ++b) {
        const u64 byte = (next.word(u) >> (8 * b)) & 0xFF;
        low_bytes += byte < 32;  // uniform would hit this 12.5% of the time
        ++total;
      }
    }
  }
  // u^3 skew puts half the mass below 256 * (1/2)^(1/3)... check the
  // tail directly: P(byte < 32) = (32/256)^(1/3) = 0.5.
  EXPECT_GT(static_cast<double>(low_bytes) / static_cast<double>(total),
            0.35);
}

TEST(ContentClass, AdversarialFlipsExactlyHalf) {
  WorkloadProfile p = profile_by_name("vips");
  p.content = ContentClass::kAdversarial;
  const pcm::GeometryParams g;
  mem::DataStore store(g.units_per_line(), 7, 0.5);
  TraceGenerator gen(p, g, 1, 23);
  for (int i = 0; i < 100; ++i) {
    const TraceOp op = gen.next(0);
    const pcm::LogicalLine current = store.read_logical(op.addr);
    const pcm::LogicalLine next = gen.make_write_data(op.addr, store, 0);
    for (u32 u = 0; u < g.units_per_line(); ++u) {
      EXPECT_EQ(hamming(current.word(u), next.word(u)),
                g.data_unit_bits / 2);
    }
  }
}

// ------------------------------------------------ mutate fast-path lock --
// The shipped mutation (popcount counts, countr_zero position walk,
// exp(-lambda) once per sampler) must reproduce the frozen per-bit
// reference word for word and leave the RNG in the same state, so every
// payload stream downstream stays bit-identical.

TEST(MutateLock, PoissonMatchesFrozenLoop) {
  for (const double lambda :
       {0.0, 0.05, 0.7, 2.9, 6.7, 19.5, 29.999, 30.0, 45.0, 120.0}) {
    const PoissonSampler sampler(lambda);
    Rng fast(17), via_rng(17), ref(17);
    for (int i = 0; i < 2000; ++i) {
      const u64 want = testref::reference_poisson(ref, lambda);
      ASSERT_EQ(sampler(fast), want) << "lambda " << lambda << " draw " << i;
      ASSERT_EQ(via_rng.poisson(lambda), want) << "lambda " << lambda;
    }
    EXPECT_TRUE(fast == ref) << "lambda " << lambda;
    EXPECT_TRUE(via_rng == ref) << "lambda " << lambda;
  }
}

TEST(MutateLock, UnitMatchesFrozenReference) {
  std::vector<std::pair<double, double>> means;
  for (const auto& p : parsec_profiles()) {
    means.emplace_back(p.mean_sets, p.mean_resets);
  }
  // lambda = 0, small, and >= 30 (normal approximation; counts clip to
  // the bits available).
  means.insert(means.end(), {{0.0, 0.0}, {0.0, 3.5}, {1.5, 0.0},
                             {30.0, 30.0}, {45.0, 2.0}, {0.4, 64.0}});
  Rng content(99);
  for (const auto& [ms, mr] : means) {
    const PoissonSampler sets(ms), resets(mr);
    for (u32 bits = 8; bits <= 64; ++bits) {
      Rng fast(bits * 7919 + static_cast<u64>(ms * 1000 + mr));
      Rng ref = fast;
      for (int i = 0; i < 64; ++i) {
        u64 word = content.next();
        if (i == 0) word = 0;
        if (i == 1) word = ~u64{0};
        if (i == 2) word = low_mask(bits);
        if (i % 4 == 3) word &= content.next() & content.next();  // sparse
        if (i % 4 == 0 && i > 0) word |= content.next() | content.next();
        const u64 want =
            testref::reference_mutate_unit(word, bits, ms, mr, ref);
        ASSERT_EQ(mutate_unit(word, bits, sets, resets, fast), want)
            << "sets " << ms << " resets " << mr << " bits " << bits
            << " word " << i;
        ASSERT_TRUE(fast == ref)
            << "rng diverged: sets " << ms << " resets " << mr << " bits "
            << bits << " word " << i;
      }
    }
  }
}

TEST(Generator, InvalidBurstinessRejected) {
  WorkloadProfile p = profile_by_name("ferret");
  p.burstiness = 1.5;
  EXPECT_THROW(TraceGenerator(p, pcm::GeometryParams{}, 1, 1),
               ContractViolation);
}

// --------------------------------------------------------------- trace io --
TEST(TraceIo, SaveLoadRoundTrip) {
  const auto& p = profile_by_name("dedup");
  TraceGenerator gen(p, pcm::GeometryParams{}, 2, 11);
  const std::vector<TraceRecord> records = capture(gen, 2, 100);
  ASSERT_EQ(records.size(), 200u);

  const std::string path =
      (std::filesystem::temp_directory_path() / "tw_trace_test.bin")
          .string();
  save_trace(path, records, 2);
  u32 cores = 0;
  const std::vector<TraceRecord> loaded = load_trace(path, &cores);
  std::remove(path.c_str());

  EXPECT_EQ(cores, 2u);
  ASSERT_EQ(loaded.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(loaded[i].gap, records[i].gap);
    EXPECT_EQ(loaded[i].addr, records[i].addr);
    EXPECT_EQ(loaded[i].core, records[i].core);
    EXPECT_EQ(loaded[i].is_write, records[i].is_write);
  }
}

TEST(TraceIo, BadFileRejected) {
  EXPECT_THROW(load_trace("/nonexistent/nowhere.bin", nullptr),
               std::runtime_error);
  const std::string path =
      (std::filesystem::temp_directory_path() / "tw_bad_trace.bin")
          .string();
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTATRACE";
  }
  EXPECT_THROW(load_trace(path, nullptr), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tw::workload

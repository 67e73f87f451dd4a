// Unit tests for the baseline write schemes against the paper's
// closed-form service-time equations (Eq. 1-4) and energy semantics
// (Table I), plus the shared prep/FFD helpers.

#include <gtest/gtest.h>

#include "tw/common/rng.hpp"
#include "tw/core/factory.hpp"
#include "tw/schemes/ffd.hpp"
#include "tw/schemes/prep.hpp"
#include "tw/schemes/write_scheme.hpp"

namespace tw::schemes {
namespace {

pcm::PcmConfig cfg() { return pcm::table2_config(); }

/// A line whose cells hold `cell` in every unit, tags clear.
pcm::LineBuf uniform_line(u32 units, u64 cell) {
  pcm::LineBuf line(units);
  for (u32 i = 0; i < units; ++i) line.set_cell(i, cell);
  return line;
}

pcm::LogicalLine uniform_data(u32 units, u64 word) {
  pcm::LogicalLine d(units);
  for (u32 i = 0; i < units; ++i) d.set_word(i, word);
  return d;
}

// ----------------------------------------------------------------- prep --
TEST(Prep, NoFlipKeepsData) {
  const UnitPlan p = plan_unit(0xFF, false, 0x0F, FlipCriterion::kNone, 8);
  EXPECT_FALSE(p.flip);
  EXPECT_EQ(p.new_cells, 0x0Fu);
  EXPECT_EQ(p.sets, 0u);
  EXPECT_EQ(p.resets, 4u);
}

TEST(Prep, HammingFlipsWhenMajorityChanges) {
  // Old cells all-zero; new data all-ones over 8 bits: 8 of 8 change, so
  // FNW stores the inversion (zero cells) and only the tag changes.
  const UnitPlan p = plan_unit(0x00, false, 0xFF, FlipCriterion::kHamming, 8);
  EXPECT_TRUE(p.flip);
  EXPECT_EQ(p.new_cells, 0x00u);
  EXPECT_EQ(p.changed(), 0u);
  EXPECT_TRUE(p.tag_changed);
  EXPECT_TRUE(p.tag_to_one);
}

TEST(Prep, HammingNoFlipOnMinorityChange) {
  const UnitPlan p = plan_unit(0x00, false, 0x0F, FlipCriterion::kHamming, 8);
  EXPECT_FALSE(p.flip);
  EXPECT_EQ(p.sets, 4u);
}

TEST(Prep, HammingGuaranteesAtMostHalfPlusTag) {
  Rng rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    const u64 old_cells = rng.next();
    const bool old_tag = rng.chance(0.5);
    const u64 next = rng.next();
    const UnitPlan p =
        plan_unit(old_cells, old_tag, next, FlipCriterion::kHamming, 64);
    const u32 cost = p.changed() + (p.tag_changed ? 1 : 0);
    EXPECT_LE(cost, 33u);  // > half would have been inverted
    // Logical value must round-trip.
    EXPECT_EQ(p.flip ? ~p.new_cells : p.new_cells, next);
  }
}

TEST(Prep, MinimizeSetsFlipCriterion) {
  // 6 ones of 8 bits: 2-stage flips to store 2 ones.
  const UnitPlan p =
      plan_unit(0x00, false, 0b0111'0110, FlipCriterion::kMinimizeSets, 8);
  EXPECT_TRUE(p.flip);
  EXPECT_LE(p.all_ones, 4u);
}

TEST(Prep, TagTransitionTracked) {
  // Previously flipped unit, new write doesn't flip: tag 1 -> 0.
  const UnitPlan p = plan_unit(0x00, true, 0x03, FlipCriterion::kHamming, 8);
  EXPECT_FALSE(p.flip);
  EXPECT_TRUE(p.tag_changed);
  EXPECT_FALSE(p.tag_to_one);
}

TEST(Prep, TotalsIncludeTagPulses) {
  std::vector<UnitPlan> plans(1);
  plans[0].sets = 2;
  plans[0].resets = 1;
  plans[0].tag_changed = true;
  plans[0].tag_to_one = true;
  const BitTransitions t = total_transitions(plans);
  EXPECT_EQ(t.sets, 3u);
  EXPECT_EQ(t.resets, 1u);
}

TEST(Prep, ApplyPlansUpdatesLine) {
  pcm::LineBuf line = uniform_line(8, 0);
  const pcm::LogicalLine next = uniform_data(8, 0xFFFF);
  const auto plans = plan_line(line, next, FlipCriterion::kNone, 64);
  apply_plans(line, plans);
  for (u32 i = 0; i < 8; ++i) EXPECT_EQ(line.logical(i), 0xFFFFu);
}

// ------------------------------------------------------------------ ffd --
TEST(Ffd, EmptyAndZeros) {
  EXPECT_EQ(ffd_bin_count({}, 10), 0u);
  EXPECT_EQ(ffd_bin_count({0, 0, 0}, 10), 0u);
}

TEST(Ffd, PerfectPacking) {
  EXPECT_EQ(ffd_bin_count({5, 5, 5, 5}, 10), 2u);
  EXPECT_EQ(ffd_bin_count({7, 3, 6, 4}, 10), 2u);
}

TEST(Ffd, SingleOversizeItem) {
  EXPECT_EQ(ffd_bin_count({25}, 10), 3u);  // 10 + 10 + 5
  EXPECT_EQ(ffd_bin_count({20}, 10), 2u);  // exact multiple
}

TEST(Ffd, OversizeRemainderSharesBin) {
  // 15 -> one full bin + remainder 5; the 5-item fits with the remainder.
  EXPECT_EQ(ffd_bin_count({15, 5}, 10), 2u);
}

TEST(Ffd, LowerBoundRespected) {
  // FFD is within 11/9 OPT + 1; check against the volume lower bound.
  Rng rng(4);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<u32> items;
    u64 volume = 0;
    const u32 n = 1 + static_cast<u32>(rng.below(20));
    for (u32 i = 0; i < n; ++i) {
      items.push_back(1 + static_cast<u32>(rng.below(64)));
      volume += items.back();
    }
    const u32 bins = ffd_bin_count(items, 64);
    EXPECT_GE(bins, ceil_div(volume, 64));
    EXPECT_LE(bins, n);  // never worse than one bin per item
  }
}

// --------------------------------------------------------- conventional --
TEST(Conventional, Equation1) {
  const auto scheme = core::make_scheme(SchemeKind::kConventional, cfg());
  pcm::LineBuf line = uniform_line(8, 0);
  const ServicePlan p = scheme->plan_write(line, uniform_data(8, 0xAA));
  EXPECT_EQ(p.latency, 8 * ns(430));  // (N/M) * Tset, no read
  EXPECT_DOUBLE_EQ(p.write_units, 8.0);
  EXPECT_FALSE(p.read_before_write);
  // All 512 data cells pulsed regardless of content.
  EXPECT_EQ(p.programmed.total(), 512u);
}

// ------------------------------------------------------------------ dcw --
TEST(Dcw, BaselineTimingWorstCaseButEnergyActual) {
  const auto scheme = core::make_scheme(SchemeKind::kDcw, cfg());
  pcm::LineBuf line = uniform_line(8, 0);
  pcm::LogicalLine next = uniform_data(8, 0);
  next.set_word(0, 0b111);  // change 3 bits total
  const ServicePlan p = scheme->plan_write(line, next);
  EXPECT_EQ(p.latency, ns(50) + 8 * ns(430));
  EXPECT_DOUBLE_EQ(p.write_units, 8.0);
  EXPECT_TRUE(p.read_before_write);
  EXPECT_EQ(p.programmed.sets, 3u);
  EXPECT_EQ(p.programmed.resets, 0u);
}

TEST(Dcw, SilentWriteDetected) {
  const auto scheme = core::make_scheme(SchemeKind::kDcw, cfg());
  pcm::LineBuf line = uniform_line(8, 0x42);
  const ServicePlan p = scheme->plan_write(line, uniform_data(8, 0x42));
  EXPECT_TRUE(p.silent);
  EXPECT_EQ(p.programmed.total(), 0u);
}

TEST(Dcw, StateActuallyUpdated) {
  const auto scheme = core::make_scheme(SchemeKind::kDcw, cfg());
  pcm::LineBuf line = uniform_line(8, 0);
  scheme->plan_write(line, uniform_data(8, 0x1234));
  for (u32 i = 0; i < 8; ++i) EXPECT_EQ(line.logical(i), 0x1234u);
}

// ------------------------------------------------------------------ fnw --
TEST(Fnw, Equation2) {
  const auto scheme = core::make_scheme(SchemeKind::kFlipNWrite, cfg());
  pcm::LineBuf line = uniform_line(8, 0);
  const ServicePlan p = scheme->plan_write(line, uniform_data(8, 0xAA));
  EXPECT_EQ(p.latency, ns(50) + 4 * ns(430));  // Tread + 1/2 (N/M) Tset
  EXPECT_DOUBLE_EQ(p.write_units, 4.0);
}

TEST(Fnw, FlipBoundsProgrammedBits) {
  const auto scheme = core::make_scheme(SchemeKind::kFlipNWrite, cfg());
  pcm::LineBuf line = uniform_line(8, 0);
  // All-ones data would change 64 bits/unit; FNW inverts instead.
  const ServicePlan p = scheme->plan_write(line, uniform_data(8, ~u64{0}));
  EXPECT_EQ(p.flipped_units, 8u);
  // Only the 8 tag cells change.
  EXPECT_EQ(p.programmed.total(), 8u);
  for (u32 i = 0; i < 8; ++i) EXPECT_EQ(line.logical(i), ~u64{0});
}

TEST(Fnw, ContentAwarePacksByActualCurrent) {
  const auto scheme =
      core::make_scheme(SchemeKind::kFlipNWriteActual, cfg());
  pcm::LineBuf line = uniform_line(8, 0);
  pcm::LogicalLine next = uniform_data(8, 0);
  for (u32 i = 0; i < 8; ++i) next.set_word(i, 0b1);  // 1 SET per unit
  const ServicePlan p = scheme->plan_write(line, next);
  // 8 units x 1 SET-current each = 8 <= 128: a single write unit.
  EXPECT_DOUBLE_EQ(p.write_units, 1.0);
  EXPECT_EQ(p.latency, ns(50) + ns(430));
}

// --------------------------------------------------------------- 2stage --
TEST(TwoStage, Equation3) {
  const auto scheme = core::make_scheme(SchemeKind::kTwoStage, cfg());
  pcm::LineBuf line = uniform_line(8, 0);
  const ServicePlan p = scheme->plan_write(line, uniform_data(8, 0xAA));
  // (1/K + 1/2L)(N/M) Tset with exact Treset: 8*Treset + 2*Tset.
  EXPECT_EQ(p.latency, 8 * ns(53) + 2 * ns(430));
  EXPECT_NEAR(p.write_units, 3.0, 0.02);
  EXPECT_FALSE(p.read_before_write);
}

TEST(TwoStage, WritesEveryCell) {
  const auto scheme = core::make_scheme(SchemeKind::kTwoStage, cfg());
  pcm::LineBuf line = uniform_line(8, 0x42);
  const ServicePlan p = scheme->plan_write(line, uniform_data(8, 0x42));
  // Table I: 2-stage does NOT reduce energy; all 512 data cells pulsed.
  EXPECT_GE(p.programmed.total(), 512u);
  EXPECT_FALSE(p.silent);
}

// --------------------------------------------------------------- 3stage --
TEST(ThreeStage, Equation4) {
  const auto scheme = core::make_scheme(SchemeKind::kThreeStage, cfg());
  pcm::LineBuf line = uniform_line(8, 0);
  const ServicePlan p = scheme->plan_write(line, uniform_data(8, 0xAA));
  // Tread + (1/2K + 1/2L)(N/M) Tset: read + 4*Treset + 2*Tset.
  EXPECT_EQ(p.latency, ns(50) + 4 * ns(53) + 2 * ns(430));
  EXPECT_NEAR(p.write_units, 2.5, 0.02);
  EXPECT_TRUE(p.read_before_write);
}

TEST(ThreeStage, EnergyReducedLikeDcw) {
  const auto scheme = core::make_scheme(SchemeKind::kThreeStage, cfg());
  pcm::LineBuf line = uniform_line(8, 0);
  pcm::LogicalLine next = uniform_data(8, 0);
  next.set_word(3, 0xF);
  const ServicePlan p = scheme->plan_write(line, next);
  EXPECT_EQ(p.programmed.total(), 4u);
}

// ------------------------------------------------- paper-order property --
struct OrderCase {
  u64 seed;
};

class SchemeOrdering : public ::testing::TestWithParam<u64> {};

TEST_P(SchemeOrdering, WriteUnitsFollowThePapersRanking) {
  // For any data, the Fig. 10 ranking must hold:
  // tetris <= 3stage <= 2stage <= fnw <= dcw.
  Rng rng(GetParam());
  const pcm::PcmConfig c = cfg();

  pcm::LineBuf base(8);
  for (u32 i = 0; i < 8; ++i) base.set_cell(i, rng.next());
  pcm::LogicalLine next(8);
  for (u32 i = 0; i < 8; ++i) {
    // Mutate a random subset of bits, biased small like real workloads.
    u64 w = base.cell(i);
    const u32 nbits = static_cast<u32>(rng.below(20));
    for (u32 b = 0; b < nbits; ++b) {
      const u32 pos = static_cast<u32>(rng.below(64));
      w = with_bit(w, pos, rng.chance(0.6));
    }
    next.set_word(i, w);
  }

  auto units = [&](SchemeKind kind) {
    pcm::LineBuf line = base;  // fresh copy per scheme
    return core::make_scheme(kind, c)->plan_write(line, next).write_units;
  };

  const double dcw = units(SchemeKind::kDcw);
  const double fnw = units(SchemeKind::kFlipNWrite);
  const double two = units(SchemeKind::kTwoStage);
  const double three = units(SchemeKind::kThreeStage);
  const double tetris = units(SchemeKind::kTetris);

  EXPECT_LE(fnw, dcw);
  EXPECT_LE(two, fnw);
  EXPECT_LE(three, two);
  EXPECT_LE(tetris, three + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomData, SchemeOrdering,
                         ::testing::Range<u64>(1, 41));

// ------------------------------------------------------- name round-trip --
TEST(Factory, NameRoundTrip) {
  for (const auto kind : core::all_scheme_kinds()) {
    const auto scheme =
        core::make_scheme(schemes::scheme_name(kind), cfg());
    EXPECT_EQ(scheme->kind(), kind);
    EXPECT_EQ(scheme->name(), scheme_name(kind));
  }
}

TEST(Factory, UnknownNameThrows) {
  EXPECT_THROW(core::make_scheme("warp-drive", cfg()), ContractViolation);
}

TEST(Factory, KindFromNameDoesNotThrow) {
  for (const auto kind : core::all_scheme_kinds()) {
    EXPECT_EQ(core::scheme_kind_from_name(schemes::scheme_name(kind)), kind);
  }
  EXPECT_FALSE(core::scheme_kind_from_name("warp-drive").has_value());
}

TEST(Factory, ReadLatencyUniformAcrossSchemes) {
  // The paper: no scheme touches the read datapath.
  for (const auto kind : core::all_scheme_kinds()) {
    EXPECT_EQ(core::make_scheme(kind, cfg())->read_latency(), ns(50));
  }
}

}  // namespace
}  // namespace tw::schemes

// Differential test for the packing hot path: the shipped SoA plan/pack
// pipeline must be *bit-identical* to the frozen reference
// (tests/reference_packer.hpp) — same flip decisions, same counts, same
// placements, same fit_checks — on exhaustive small grids, the
// all-zero/all-one edges, and >= 20k random lines through the full
// read+pack pipeline.

#include <gtest/gtest.h>

#include <vector>

#include "reference_packer.hpp"
#include "tw/common/rng.hpp"
#include "tw/core/packer.hpp"
#include "tw/core/read_stage.hpp"
#include "tw/pcm/line.hpp"
#include "tw/schemes/prep.hpp"

namespace tw {
namespace {

// Word generator mixing random data with the structured edges the packer
// actually sees: all-zero, all-one, and sparse single-bit words.
u64 edgy_word(Rng& rng) {
  const u64 r = rng.next();
  switch (r % 8) {
    case 0: return 0;
    case 1: return ~u64{0};
    case 2: return u64{1} << (r >> 3) % 64;
    default: return rng.next();
  }
}

void expect_plans_equal(const schemes::PlanVec& got,
                        const schemes::PlanVec& want) {
  ASSERT_EQ(got.size(), want.size());
  for (u32 i = 0; i < got.size(); ++i) {
    const auto& g = got[i];
    const auto& w = want[i];
    ASSERT_EQ(g.flip, w.flip) << "unit " << i;
    ASSERT_EQ(g.new_cells, w.new_cells) << "unit " << i;
    ASSERT_EQ(g.sets, w.sets) << "unit " << i;
    ASSERT_EQ(g.resets, w.resets) << "unit " << i;
    ASSERT_EQ(g.all_ones, w.all_ones) << "unit " << i;
    ASSERT_EQ(g.all_zeros, w.all_zeros) << "unit " << i;
    ASSERT_EQ(g.tag_changed, w.tag_changed) << "unit " << i;
    ASSERT_EQ(g.tag_to_one, w.tag_to_one) << "unit " << i;
  }
}

void expect_pack_equal(const core::PackResult& got,
                       const core::PackResult& want) {
  ASSERT_EQ(got.result, want.result);
  ASSERT_EQ(got.subresult, want.subresult);
  ASSERT_EQ(got.fit_checks, want.fit_checks);
  ASSERT_EQ(got.write1_queue.size(), want.write1_queue.size());
  for (u32 i = 0; i < got.write1_queue.size(); ++i) {
    const auto& g = got.write1_queue[i];
    const auto& w = want.write1_queue[i];
    ASSERT_EQ(g.unit, w.unit) << "write1 slot " << i;
    ASSERT_EQ(g.write_unit, w.write_unit) << "write1 slot " << i;
    ASSERT_EQ(g.current, w.current) << "write1 slot " << i;
    ASSERT_EQ(g.passes, w.passes) << "write1 slot " << i;
  }
  ASSERT_EQ(got.write0_queue.size(), want.write0_queue.size());
  for (u32 i = 0; i < got.write0_queue.size(); ++i) {
    const auto& g = got.write0_queue[i];
    const auto& w = want.write0_queue[i];
    ASSERT_EQ(g.unit, w.unit) << "write0 slot " << i;
    ASSERT_EQ(g.sub_slot, w.sub_slot) << "write0 slot " << i;
    ASSERT_EQ(g.current, w.current) << "write0 slot " << i;
    ASSERT_EQ(g.passes, w.passes) << "write0 slot " << i;
  }
  ASSERT_EQ(got.slot_power.size(), want.slot_power.size());
  for (u32 i = 0; i < got.slot_power.size(); ++i) {
    ASSERT_EQ(got.slot_power[i], want.slot_power[i]) << "slot " << i;
  }
}

void fill_line(Rng& rng, pcm::LineBuf& line, pcm::LogicalLine& next) {
  for (u32 u = 0; u < line.units(); ++u) {
    line.set_cell(u, edgy_word(rng));
    line.set_flip(u, rng.chance(0.3));
    // Correlated rewrites keep the demand distribution realistic.
    next.set_word(u, rng.chance(0.3)
                         ? edgy_word(rng)
                         : (line.logical(u) ^ (rng.next() & rng.next())));
  }
}

TEST(PackerReference, PlanLineMatchesReference) {
  Rng rng(0x9147ull);
  const schemes::FlipCriterion crits[] = {schemes::FlipCriterion::kNone,
                                          schemes::FlipCriterion::kHamming,
                                          schemes::FlipCriterion::kMinimizeSets};
  for (const auto crit : crits) {
    for (const u32 bits : {64u, 33u, 7u, 1u}) {
      for (const u32 units : {1u, 5u, 8u, 32u}) {
        pcm::LineBuf line(units);
        pcm::LogicalLine next(units);
        // The all-zero and all-one edges first (both directions).
        for (const u64 w : {u64{0}, ~u64{0}}) {
          for (u32 u = 0; u < units; ++u) next.set_word(u, w);
          expect_plans_equal(
              schemes::plan_line(line, next, crit, bits),
              testref::reference_plan_line(line, next, crit, bits));
        }
        for (int trial = 0; trial < 200; ++trial) {
          fill_line(rng, line, next);
          expect_plans_equal(
              schemes::plan_line(line, next, crit, bits),
              testref::reference_plan_line(line, next, crit, bits));
        }
      }
    }
  }
}

TEST(PackerReference, PackMatchesReferenceExhaustiveSmallGrids) {
  // Every single-unit (n1, n0) pair over the full 0..64 bit-count range,
  // swept across budget boundaries and pack orders: the shipped pack()
  // must reproduce the frozen reference's placements and its fit_checks
  // accounting exactly.
  const core::PackOrder orders[] = {core::PackOrder::kFirstFitDecreasing,
                                    core::PackOrder::kFirstFitArrival,
                                    core::PackOrder::kBestFitDecreasing};
  for (const u32 budget : {1u, 63u, 64u, 128u}) {
    for (const auto order : orders) {
      core::PackerConfig cfg;
      cfg.k = 8;
      cfg.l = 2;
      cfg.budget = budget;
      cfg.order = order;
      for (u32 n1 = 0; n1 <= 64; ++n1) {
        for (u32 n0 = 0; n0 + n1 <= 64; ++n0) {
          const core::UnitCounts counts[] = {{0, n1, n0}};
          expect_pack_equal(core::pack(counts, cfg),
                            testref::reference_pack(counts, cfg));
        }
      }
    }
  }
}

TEST(PackerReference, PackMatchesReferenceRandomCounts) {
  // Random multi-unit demand sets, including batch-sized inputs (up to 64
  // units — past the counting-sort threshold and the InlineVec inline
  // capacity) across every config axis.
  const core::PackOrder orders[] = {core::PackOrder::kFirstFitDecreasing,
                                    core::PackOrder::kFirstFitArrival,
                                    core::PackOrder::kBestFitDecreasing};
  Rng rng(0xACC5ull);
  for (int trial = 0; trial < 10'000; ++trial) {
    core::PackerConfig cfg;
    cfg.k = 1 + static_cast<u32>(rng.next() % 8);
    cfg.l = 1 + static_cast<u32>(rng.next() % 4);
    cfg.budget = 1 + static_cast<u32>(rng.next() % 160);
    cfg.order = orders[rng.next() % 3];
    cfg.forbid_self_overlap = rng.chance(0.25);
    const u32 units = 1 + static_cast<u32>(rng.next() % 64);
    std::vector<core::UnitCounts> counts;
    for (u32 u = 0; u < units; ++u) {
      u32 n1 = static_cast<u32>(rng.next() % 65);
      if (rng.chance(0.25)) n1 = rng.chance(0.5) ? 0 : 64;
      const u32 n0 = static_cast<u32>(rng.next() % (65 - n1));
      counts.push_back({u, n1, n0});
    }
    expect_pack_equal(core::pack(counts, cfg),
                      testref::reference_pack(counts, cfg));
  }
}

TEST(PackerReference, FullPipelineMatchesReferenceTwentyThousandLines) {
  // End-to-end: random line contents -> read stage (Alg. 1, SoA) -> pack
  // (Alg. 2) vs the frozen per-unit reference pipeline, >= 20k lines at
  // both the 64 B (8-unit) and 256 B (32-unit) geometries.
  core::PackerConfig cfg;
  cfg.k = 8;
  cfg.l = 2;
  cfg.budget = 128;
  Rng rng(0x20CAull);
  for (const u32 units : {8u, 32u}) {
    pcm::LineBuf line(units);
    pcm::LogicalLine next(units);
    for (int trial = 0; trial < 10'000; ++trial) {
      fill_line(rng, line, next);
      const auto shipped = core::read_stage(line, next, 64);
      const auto frozen = testref::reference_read_stage(line, next, 64);
      expect_plans_equal(shipped.plans, frozen.plans);
      ASSERT_EQ(shipped.flipped_units, frozen.flipped_units);
      ASSERT_EQ(shipped.counts.size(), frozen.counts.size());
      for (u32 i = 0; i < shipped.counts.size(); ++i) {
        ASSERT_EQ(shipped.counts[i].unit, frozen.counts[i].unit);
        ASSERT_EQ(shipped.counts[i].n1, frozen.counts[i].n1);
        ASSERT_EQ(shipped.counts[i].n0, frozen.counts[i].n0);
      }
      expect_pack_equal(
          core::pack({shipped.counts.data(), shipped.counts.size()}, cfg),
          testref::reference_pack(
              {frozen.counts.data(), frozen.counts.size()}, cfg));
      // Keep the physical state evolving like a real write stream.
      core::ReadStageResult r = shipped;
      schemes::apply_plans(line, {r.plans.data(), r.plans.size()});
    }
  }
}

}  // namespace
}  // namespace tw

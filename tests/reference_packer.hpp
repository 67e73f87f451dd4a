#pragma once
// Frozen packing path (the seed's exact Algorithm 1 + 2 implementation),
// kept verbatim as an independent oracle:
//
//  - tests/packer_reference_test.cpp diffs the shipped SoA pipeline
//    against these functions bit-for-bit, so an optimization bug cannot
//    hide inside the shared shipped code;
//  - bench/micro_packer benches them as the committed baseline the
//    ">= 2x packing-path" target is measured against (the same role
//    reference_controller.hpp plays for micro_mem --reference).
//
// Deliberately unoptimized: per-unit plan_unit() calls, array-of-structs
// insertion sort, contract-checked container accesses. Do not "fix" or
// speed up this file — any change to shipped packing semantics must land
// here only when the reference is re-frozen on purpose. Trace emission is
// the one omission (the oracle's outputs don't depend on it).

#include <span>

#include "tw/common/assert.hpp"
#include "tw/common/bits.hpp"
#include "tw/common/inline_vec.hpp"
#include "tw/core/packer.hpp"
#include "tw/core/read_stage.hpp"
#include "tw/pcm/line.hpp"
#include "tw/schemes/prep.hpp"

namespace tw::testref {

/// Seed plan_line: one plan_unit() call per data unit (plan_unit itself is
/// the still-shipping scalar reference for a single unit).
inline schemes::PlanVec reference_plan_line(const pcm::LineBuf& line,
                                            const pcm::LogicalLine& next,
                                            schemes::FlipCriterion crit,
                                            u32 bits) {
  TW_EXPECTS(line.units() == next.units());
  schemes::PlanVec plans;
  for (u32 i = 0; i < line.units(); ++i) {
    plans.push_back(schemes::plan_unit(line.cell(i), line.flip(i),
                                       next.word(i), crit, bits));
  }
  return plans;
}

/// Seed read stage (Algorithm 1): plan, then fold the tag transition into
/// the per-unit SET/RESET counts.
inline core::ReadStageResult reference_read_stage(const pcm::LineBuf& line,
                                                  const pcm::LogicalLine& next,
                                                  u32 bits) {
  core::ReadStageResult r;
  r.plans = reference_plan_line(line, next,
                                schemes::FlipCriterion::kHamming, bits);
  r.counts.reserve(r.plans.size());
  for (u32 i = 0; i < r.plans.size(); ++i) {
    const auto& p = r.plans[i];
    core::UnitCounts c;
    c.unit = i;
    c.n1 = p.sets;
    c.n0 = p.resets;
    if (p.tag_changed) {
      if (p.tag_to_one) {
        ++c.n1;
      } else {
        ++c.n0;
      }
    }
    if (p.flip) ++r.flipped_units;
    r.counts.push_back(c);
  }
  return r;
}

namespace detail {

struct RefItem {
  u32 unit;
  u32 current;
};

using RefItemVec = InlineVec<RefItem, pcm::kMaxUnitsPerLine>;

/// Seed sort: decreasing current demand, index ascending, by insertion.
inline RefItemVec reference_sorted_items(std::span<const core::UnitCounts> counts,
                                         bool write1_phase,
                                         const core::PackerConfig& cfg) {
  RefItemVec items;
  const bool ordered = cfg.order != core::PackOrder::kFirstFitArrival;
  for (const auto& c : counts) {
    const u32 demand = write1_phase ? c.n1 : c.n0 * cfg.l;
    if (demand == 0) continue;
    const RefItem it{c.unit, demand};
    if (!ordered) {
      items.push_back(it);
      continue;
    }
    items.push_back(it);
    std::size_t j = items.size() - 1;
    while (j > 0 && (items[j - 1].current < it.current ||
                     (items[j - 1].current == it.current &&
                      items[j - 1].unit > it.unit))) {
      items[j] = items[j - 1];
      --j;
    }
    items[j] = it;
  }
  return items;
}

}  // namespace detail

/// Seed Algorithm 2: two-phase first-fit-decreasing packing with linear
/// per-slot scans. Bit-identical outputs (placements, result/subresult,
/// slot_power, fit_checks) to the shipped core::pack() by construction.
inline core::PackResult reference_pack(std::span<const core::UnitCounts> counts,
                                       const core::PackerConfig& cfg) {
  TW_EXPECTS(cfg.valid());
  core::PackResult r;

  InlineVec<u32, pcm::kMaxUnitsPerLine> wu_power;
  struct UnitSpan {
    u32 lo = 0;
    u32 hi = 0;
  };
  InlineVec<UnitSpan, pcm::kMaxUnitsPerLine> span_of_unit;
  span_of_unit.resize(counts.size(), UnitSpan{});

  const bool best_fit = cfg.order == core::PackOrder::kBestFitDecreasing;
  for (const detail::RefItem& it :
       detail::reference_sorted_items(counts, /*write1_phase=*/true, cfg)) {
    core::Write1Slot slot;
    slot.unit = it.unit;
    slot.current = it.current;
    if (it.current > cfg.budget) {
      slot.passes = static_cast<u32>(ceil_div(it.current, cfg.budget));
      slot.write_unit = static_cast<u32>(wu_power.size());
      const u32 remainder = it.current - (slot.passes - 1) * cfg.budget;
      for (u32 p = 0; p + 1 < slot.passes; ++p) wu_power.push_back(cfg.budget);
      wu_power.push_back(remainder);
    } else {
      u32 target = static_cast<u32>(wu_power.size());
      for (u32 w = 0; w < wu_power.size(); ++w) {
        ++r.fit_checks;
        if (wu_power[w] + it.current > cfg.budget) continue;
        if (!best_fit) {
          target = w;
          break;
        }
        if (target == wu_power.size() || wu_power[w] > wu_power[target]) {
          target = w;
        }
      }
      if (target == wu_power.size()) wu_power.push_back(0);
      wu_power[target] += it.current;
      slot.write_unit = target;
    }
    TW_ASSERT(it.unit < span_of_unit.size());
    span_of_unit[it.unit] = {slot.write_unit, slot.write_unit + slot.passes};
    r.write1_queue.push_back(slot);
  }
  r.result = static_cast<u32>(wu_power.size());

  auto& slots = r.slot_power;
  slots.reserve(static_cast<std::size_t>(r.result) * cfg.k);
  for (u32 w = 0; w < r.result; ++w) {
    for (u32 s = 0; s < cfg.k; ++s) slots.push_back(wu_power[w]);
  }
  const u32 wu_slot_count = static_cast<u32>(slots.size());

  for (const detail::RefItem& it :
       detail::reference_sorted_items(counts, /*write1_phase=*/false, cfg)) {
    core::Write0Slot slot;
    slot.unit = it.unit;
    slot.current = it.current;
    const auto [self_lo, self_hi] = span_of_unit[it.unit];
    const u32 forbid_lo = cfg.forbid_self_overlap ? self_lo * cfg.k : 0;
    const u32 forbid_hi = cfg.forbid_self_overlap ? self_hi * cfg.k : 0;

    if (it.current > cfg.budget) {
      slot.passes = static_cast<u32>(ceil_div(it.current, cfg.budget));
      slot.sub_slot = static_cast<u32>(slots.size());
      const u32 remainder = it.current - (slot.passes - 1) * cfg.budget;
      for (u32 p = 0; p + 1 < slot.passes; ++p) slots.push_back(cfg.budget);
      slots.push_back(remainder);
      r.subresult += slot.passes;
    } else {
      u32 target = static_cast<u32>(slots.size());
      for (u32 s = 0; s < slots.size(); ++s) {
        ++r.fit_checks;
        if (s >= forbid_lo && s < forbid_hi) continue;
        if (slots[s] + it.current > cfg.budget) continue;
        if (!best_fit) {
          target = s;
          break;
        }
        if (target == slots.size() || slots[s] > slots[target]) target = s;
      }
      if (target == slots.size()) {
        slots.push_back(0);
        ++r.subresult;
      }
      slots[target] += it.current;
      slot.sub_slot = target;
    }
    r.write0_queue.push_back(slot);
  }
  TW_ENSURES(slots.size() == wu_slot_count + r.subresult);
  return r;
}

}  // namespace tw::testref

#include "tw/core/packer.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <utility>
#include <vector>

#include "tw/common/assert.hpp"
#include "tw/trace/emit.hpp"

namespace tw::core {
namespace {

/// Items of one packing phase in structure-of-arrays layout: `current[i]`
/// is the demand of data unit `unit[i]`. Keeping the demands contiguous
/// lets the first-fit scan read them without gather steps, and the
/// multi-line batch path (hundreds of units) spills both arrays to one
/// heap block each instead of an array of structs.
struct ItemsSoA {
  InlineVec<u32, pcm::kMaxUnitsPerLine> unit;
  InlineVec<u32, pcm::kMaxUnitsPerLine> current;

  std::size_t size() const { return unit.size(); }
};

/// Counting sort applies while every demand is at most this (covers every
/// real geometry: demand <= (bits + 1) * l = 130 for Table II; only
/// extreme l ablations exceed it and fall back to insertion sort).
constexpr u32 kCountingSortMaxDemand = 1024;
/// Below this many items the quadratic insertion sort's constant wins.
constexpr std::size_t kInsertionSortMax = 16;

/// Sort order for both phases: decreasing current demand, index ascending
/// for determinism. Raw-pointer loops over pre-sized arrays: this and the
/// placement loops below are the per-write hot path, so they use
/// unchecked access throughout (the contract-checked InlineVec accessors
/// cost a compare+branch per element).
///
/// Two sort strategies produce the *identical* order (so the choice can
/// never affect packing results): insertion sort for short sequences
/// (single lines: at most 32 items, a handful of shifts), and a counting
/// sort over the bounded demand values for multi-line batches — the
/// insertion sort's O(m^2) dependent shifts dominated the whole joint
/// pack at K x 32 items. Descending bucket offsets give decreasing
/// demand; scanning items in input (ascending unit) order makes the
/// placement stable, which is exactly the ascending-unit tie-break.
ItemsSoA sorted_items(std::span<const UnitCounts> counts, bool write1_phase,
                      const PackerConfig& cfg) {
  ItemsSoA items;
  items.unit.resize_uninitialized(counts.size());
  items.current.resize_uninitialized(counts.size());
  u32* unit = items.unit.data();
  u32* cur = items.current.data();
  const bool ordered = cfg.order != PackOrder::kFirstFitArrival;
  std::size_t m = 0;
  u32 maxd = 0;
  for (const auto& c : counts) {
    const u32 demand = write1_phase ? c.n1 : c.n0 * cfg.l;
    if (demand == 0) continue;
    unit[m] = c.unit;
    cur[m] = demand;
    maxd = demand > maxd ? demand : maxd;
    ++m;
  }
  items.unit.resize_uninitialized(m);
  items.current.resize_uninitialized(m);
  if (!ordered || m < 2) return items;

  if (m > kInsertionSortMax && maxd <= kCountingSortMaxDemand) {
    u32 hist[kCountingSortMaxDemand + 1];
    std::memset(hist, 0, (maxd + 1) * sizeof(u32));
    for (std::size_t i = 0; i < m; ++i) ++hist[cur[i]];
    u32 pos = 0;
    for (u32 d = maxd; ; --d) {
      const u32 bucket = hist[d];
      hist[d] = pos;
      pos += bucket;
      if (d == 0) break;
    }
    ItemsSoA out;
    out.unit.resize_uninitialized(m);
    out.current.resize_uninitialized(m);
    u32* ou = out.unit.data();
    u32* oc = out.current.data();
    for (std::size_t i = 0; i < m; ++i) {
      const u32 d = cur[i];
      const u32 p = hist[d]++;
      ou[p] = unit[i];
      oc[p] = d;
    }
    return out;
  }

  for (std::size_t i = 1; i < m; ++i) {
    const u32 u = unit[i];
    const u32 d = cur[i];
    std::size_t j = i;
    while (j > 0 && (cur[j - 1] < d || (cur[j - 1] == d && unit[j - 1] > u))) {
      unit[j] = unit[j - 1];
      cur[j] = cur[j - 1];
      --j;
    }
    unit[j] = u;
    cur[j] = d;
  }
  return items;
}

/// First-fit over `power[0, n)` skipping the forbidden window
/// `[forbid_lo, forbid_hi)`: lowest slot that still fits, or n. Every
/// index visited, forbidden ones included, charges one fit check, so a
/// miss charges n.
u32 first_fit_target(const u32* power, u32 n, u32 limit, u32 forbid_lo,
                     u32 forbid_hi, u64& fit_checks) {
  for (u32 s = 0; s < n; ++s) {
    ++fit_checks;
    if (s >= forbid_lo && s < forbid_hi) continue;
    if (power[s] <= limit) return s;
  }
  return n;
}

/// Best-fit over the same domain (ablation path):
/// highest-occupancy slot that still fits, first index among ties.
u32 best_fit_target(const u32* power, u32 n, u32 limit, u32 forbid_lo,
                    u32 forbid_hi, u64& fit_checks) {
  u32 target = n;
  for (u32 s = 0; s < n; ++s) {
    ++fit_checks;
    if (s >= forbid_lo && s < forbid_hi) continue;
    if (power[s] > limit) continue;
    if (target == n || power[s] > power[target]) target = s;
  }
  return target;
}

}  // namespace

PackResult pack(std::span<const UnitCounts> counts, const PackerConfig& cfg) {
  TW_EXPECTS(cfg.valid());
  PackResult r;

  // ---- Phase 1: write-1s into write units. -------------------------------
  // During this phase every sub-slot of a write unit carries the same
  // power, so track one value per write unit.
  InlineVec<u32, pcm::kMaxUnitsPerLine> wu_power;  // SET-current per unit
  // Self-overlap bookkeeping: which write units unit i's write-1 spans.
  struct UnitSpan {
    u32 lo = 0;
    u32 hi = 0;
  };
  InlineVec<UnitSpan, pcm::kMaxUnitsPerLine> span_of_unit;
  span_of_unit.resize(counts.size(), UnitSpan{});
  UnitSpan* span = span_of_unit.data();

  const bool best_fit = cfg.order == PackOrder::kBestFitDecreasing;
  const ItemsSoA items1 = sorted_items(counts, /*write1_phase=*/true, cfg);
  const u32* it1_unit = items1.unit.data();
  const u32* it1_cur = items1.current.data();
  r.write1_queue.resize_uninitialized(items1.size());
  Write1Slot* q1 = r.write1_queue.data();
  for (std::size_t i = 0; i < items1.size(); ++i) {
    Write1Slot slot;
    slot.unit = it1_unit[i];
    slot.current = it1_cur[i];
    if (slot.current > cfg.budget) {
      // Over-budget item: ceil(current/budget) dedicated serial passes.
      slot.passes = static_cast<u32>(ceil_div(slot.current, cfg.budget));
      slot.write_unit = static_cast<u32>(wu_power.size());
      const u32 remainder = slot.current - (slot.passes - 1) * cfg.budget;
      for (u32 p = 0; p + 1 < slot.passes; ++p) wu_power.push_back(cfg.budget);
      wu_power.push_back(remainder);
    } else {
      // A slot fits iff its occupancy <= budget - current (no overflow:
      // current <= budget here).
      const u32 n = static_cast<u32>(wu_power.size());
      const u32 limit = cfg.budget - slot.current;
      const u32 target =
          best_fit
              ? best_fit_target(wu_power.data(), n, limit, 0, 0, r.fit_checks)
              : first_fit_target(wu_power.data(), n, limit, 0, 0,
                                 r.fit_checks);
      if (target == n) wu_power.push_back(0);
      wu_power.data()[target] += slot.current;
      slot.write_unit = target;
    }
    TW_ASSERT(slot.unit < span_of_unit.size());
    span[slot.unit] = {slot.write_unit, slot.write_unit + slot.passes};
    q1[i] = slot;
  }
  r.result = static_cast<u32>(wu_power.size());

  // ---- Phase 2: write-0s into sub-write-units. ---------------------------
  // Expand per-write-unit power to per-sub-slot power; trailing sub-slots
  // are appended on demand with a fresh budget.
  auto& slots = r.slot_power;
  slots.resize_uninitialized(static_cast<std::size_t>(r.result) * cfg.k);
  {
    u32* sp = slots.data();
    const u32* wu = wu_power.data();
    for (u32 w = 0; w < r.result; ++w) {
      for (u32 s = 0; s < cfg.k; ++s) sp[w * cfg.k + s] = wu[w];
    }
  }
  const u32 wu_slot_count = static_cast<u32>(slots.size());

  const ItemsSoA items0 = sorted_items(counts, /*write1_phase=*/false, cfg);
  const u32* it0_unit = items0.unit.data();
  const u32* it0_cur = items0.current.data();
  r.write0_queue.resize_uninitialized(items0.size());
  Write0Slot* q0 = r.write0_queue.data();
  for (std::size_t i = 0; i < items0.size(); ++i) {
    Write0Slot slot;
    slot.unit = it0_unit[i];
    slot.current = it0_cur[i];
    TW_ASSERT(slot.unit < span_of_unit.size());
    const auto [self_lo, self_hi] = span[slot.unit];
    const u32 forbid_lo = cfg.forbid_self_overlap ? self_lo * cfg.k : 0;
    const u32 forbid_hi = cfg.forbid_self_overlap ? self_hi * cfg.k : 0;

    if (slot.current > cfg.budget) {
      // Over-budget write-0: dedicated trailing sub-slots.
      slot.passes = static_cast<u32>(ceil_div(slot.current, cfg.budget));
      slot.sub_slot = static_cast<u32>(slots.size());
      const u32 remainder = slot.current - (slot.passes - 1) * cfg.budget;
      for (u32 p = 0; p + 1 < slot.passes; ++p) slots.push_back(cfg.budget);
      slots.push_back(remainder);
      r.subresult += slot.passes;
    } else {
      const u32 n = static_cast<u32>(slots.size());
      const u32 limit = cfg.budget - slot.current;
      const u32 target =
          best_fit ? best_fit_target(slots.data(), n, limit, forbid_lo,
                                     forbid_hi, r.fit_checks)
                   : first_fit_target(slots.data(), n, limit, forbid_lo,
                                      forbid_hi, r.fit_checks);
      if (target == n) {
        slots.push_back(0);
        ++r.subresult;
      }
      slots.data()[target] += slot.current;
      slot.sub_slot = target;
    }
    q0[i] = slot;
  }
  TW_ENSURES(slots.size() == wu_slot_count + r.subresult);

  // Packing decisions for the observability layer: one instant per placed
  // item, distinguishing write-0s that stole an interspace sub-slot inside
  // the write-unit region from those that appended trailing sub-slots.
  // All records land at the enclosing operation's time base (the packing
  // itself is instantaneous at the analysis stage).
  if (trace::on<trace::Category::kPacker>()) {
    const Tick base = trace::g_tls.base;
    const u32 ptrack = trace::track_id(trace::Track::kPacker,
                                       trace::track_index(trace::g_tls.track));
    for (const auto& s : r.write1_queue) {
      trace::emit_instant(trace::Category::kPacker, trace::Op::kWrite1Pack,
                          ptrack, base, s.unit, s.write_unit);
    }
    for (const auto& s : r.write0_queue) {
      trace::emit_instant(trace::Category::kPacker,
                          s.sub_slot < wu_slot_count
                              ? trace::Op::kWrite0Steal
                              : trace::Op::kWrite0Trail,
                          ptrack, base, s.unit, s.sub_slot);
    }
  }
  return r;
}

double PackResult::power_utilization(u32 budget) const {
  if (slot_power.empty() || budget == 0) return 0.0;
  const u64 used = std::accumulate(slot_power.begin(), slot_power.end(),
                                   u64{0});
  return static_cast<double>(used) /
         (static_cast<double>(slot_power.size()) *
          static_cast<double>(budget));
}

void verify_pack(std::span<const UnitCounts> counts, const PackerConfig& cfg,
                 const PackResult& r) {
  // 1. Every unit with demand is scheduled exactly once per phase, with
  //    the correct current.
  std::vector<u32> seen1(counts.size(), 0), seen0(counts.size(), 0);
  for (const auto& s : r.write1_queue) {
    TW_ASSERT(s.unit < counts.size());
    ++seen1[s.unit];
    TW_ASSERT(s.current == counts[s.unit].n1);
    TW_ASSERT(s.write_unit + s.passes <= r.result);
  }
  for (const auto& s : r.write0_queue) {
    TW_ASSERT(s.unit < counts.size());
    ++seen0[s.unit];
    TW_ASSERT(s.current == counts[s.unit].n0 * cfg.l);
    TW_ASSERT(s.sub_slot + s.passes <= r.total_sub_slots(cfg.k));
  }
  for (const auto& c : counts) {
    TW_ASSERT(seen1[c.unit] == (c.n1 > 0 ? 1u : 0u));
    TW_ASSERT(seen0[c.unit] == (c.n0 > 0 ? 1u : 0u));
  }

  // 2. Recompute per-sub-slot power from the queues and check the budget.
  std::vector<u64> power(r.total_sub_slots(cfg.k), 0);
  auto charge = [&](u32 first_slot, u32 slot_count, u64 current) {
    // Spread an item's passes: each full pass draws the budget, the last
    // pass the remainder.
    u64 remaining = current;
    for (u32 s = 0; s < slot_count; ++s) {
      const u64 draw = std::min<u64>(remaining, cfg.budget);
      power[first_slot + s] += draw;
      remaining -= draw;
    }
    TW_ASSERT(remaining == 0);
  };
  for (const auto& s : r.write1_queue) {
    if (s.passes == 1) {
      for (u32 k = 0; k < cfg.k; ++k)
        power[s.write_unit * cfg.k + k] += s.current;
    } else {
      // Dedicated passes: charge pass p's current to all K slots of
      // write unit (write_unit + p).
      u64 remaining = s.current;
      for (u32 p = 0; p < s.passes; ++p) {
        const u64 draw = std::min<u64>(remaining, cfg.budget);
        for (u32 k = 0; k < cfg.k; ++k)
          power[(s.write_unit + p) * cfg.k + k] += draw;
        remaining -= draw;
      }
      TW_ASSERT(remaining == 0);
    }
  }
  for (const auto& s : r.write0_queue) {
    charge(s.sub_slot, s.passes, s.current);
  }
  for (std::size_t s = 0; s < power.size(); ++s) {
    TW_ASSERT(power[s] <= cfg.budget);
    TW_ASSERT(power[s] == r.slot_power[s]);
  }

  // 3. Self-overlap constraint.
  if (cfg.forbid_self_overlap) {
    std::vector<std::pair<u32, u32>> span(counts.size(), {0, 0});
    for (const auto& s : r.write1_queue)
      span[s.unit] = {s.write_unit * cfg.k, (s.write_unit + s.passes) * cfg.k};
    for (const auto& s : r.write0_queue) {
      const auto [lo, hi] = span[s.unit];
      if (hi == 0) continue;  // unit has no write-1
      TW_ASSERT(s.sub_slot + s.passes <= lo || s.sub_slot >= hi);
    }
  }
}

}  // namespace tw::core

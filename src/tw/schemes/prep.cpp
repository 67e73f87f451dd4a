#include "tw/schemes/prep.hpp"

#include <algorithm>

#include "tw/common/assert.hpp"
#include "tw/encode/flip_rule.hpp"

namespace tw::schemes {

UnitPlan plan_unit(u64 old_cells, bool old_tag, u64 new_logical,
                   FlipCriterion crit, u32 bits) {
  TW_EXPECTS(bits >= 1 && bits <= 64);
  const u64 mask = low_mask(bits);
  old_cells &= mask;
  new_logical &= mask;

  bool flip = false;
  switch (crit) {
    case FlipCriterion::kNone:
      flip = false;
      break;
    case FlipCriterion::kHamming:
      // Cost of storing {D, tag=0} vs {~D, tag=1} over {D', F'}, counting
      // the tag cell (encode::flip_wins, shared with FlipEncoder). Paper:
      // invert when more than half the bits change.
      flip = encode::flip_wins(hamming(new_logical, old_cells), old_tag, bits);
      break;
    case FlipCriterion::kMinimizeSets:
      // Minimize ones in the stored word (stage-1 SET count).
      flip = popcount(new_logical) * 2 > bits;
      break;
  }

  UnitPlan p;
  p.flip = flip;
  p.new_cells = (flip ? (~new_logical) : new_logical) & mask;
  const u64 diff = p.new_cells ^ old_cells;
  p.sets = popcount(diff & p.new_cells);
  p.resets = popcount(diff & old_cells);
  p.all_ones = popcount(p.new_cells);
  p.all_zeros = bits - p.all_ones;
  p.tag_changed = old_tag != flip;
  p.tag_to_one = flip;
  return p;
}

PlanVec plan_line(const pcm::LineBuf& line, const pcm::LogicalLine& next,
                  FlipCriterion crit, u32 bits) {
  TW_EXPECTS(line.units() == next.units());
  TW_EXPECTS(bits >= 1 && bits <= 64);
  TW_EXPECTS(line.units() <= pcm::kMaxUnitsPerLine);
  // min() is a no-op after the check above, but it lets the compiler
  // prove the staging loops stay in bounds, so the arrays can go
  // uninitialized (zeroing them cost ~1 KB of stores per line write).
  const u32 units = std::min(line.units(), pcm::kMaxUnitsPerLine);
  const u64 mask = low_mask(bits);

  // Structure-of-arrays staging: gather the masked words once, then run
  // each count as a plain loop over the whole line. Must stay
  // arithmetically identical to plan_unit() (the per-unit reference the
  // differential tests pin). Hot path: raw-span access to cells/flip tags
  // and unchecked plan writes.
  u64 old_w[pcm::kMaxUnitsPerLine];
  u64 new_w[pcm::kMaxUnitsPerLine];
  const u64* cells = line.cell_words().data();
  const bool* flips = line.flip_bits().data();
  const u64* words = next.words().data();
  for (u32 i = 0; i < units; ++i) {
    old_w[i] = cells[i] & mask;
    new_w[i] = words[i] & mask;
  }

  PlanVec plans;
  plans.resize(units, UnitPlan{});
  UnitPlan* pl = plans.data();
  switch (crit) {
    case FlipCriterion::kNone:
      break;
    case FlipCriterion::kHamming:
      // One XOR-popcount per unit suffices: with d = hamming(new, old),
      // the flip cost hamming(~new & mask, old) is exactly bits - d, so
      // plan_unit's cost comparison reduces to d and the tag state.
      for (u32 i = 0; i < units; ++i) {
        pl[i].flip =
            encode::flip_wins(hamming(old_w[i], new_w[i]), flips[i], bits);
      }
      break;
    case FlipCriterion::kMinimizeSets:
      for (u32 i = 0; i < units; ++i) {
        pl[i].flip = popcount(new_w[i]) * 2 > bits;
      }
      break;
  }

  for (u32 i = 0; i < units; ++i) {
    const u64 stored = (pl[i].flip ? ~new_w[i] : new_w[i]) & mask;
    const u64 diff = old_w[i] ^ stored;
    pl[i].new_cells = stored;
    pl[i].sets = popcount(diff & stored);
    pl[i].resets = popcount(diff & old_w[i]);
    pl[i].all_ones = popcount(stored);
    pl[i].all_zeros = bits - pl[i].all_ones;
    pl[i].tag_changed = flips[i] != pl[i].flip;
    pl[i].tag_to_one = pl[i].flip;
  }
  return plans;
}

void apply_plans(pcm::LineBuf& line, std::span<const UnitPlan> plans) {
  TW_EXPECTS(plans.size() == line.units());
  for (u32 i = 0; i < line.units(); ++i) {
    line.set_cell(i, plans[i].new_cells);
    line.set_flip(i, plans[i].flip);
  }
}

BitTransitions total_transitions(std::span<const UnitPlan> plans) {
  BitTransitions t;
  for (const auto& p : plans) {
    t.sets += p.sets;
    t.resets += p.resets;
    if (p.tag_changed) {
      if (p.tag_to_one) {
        ++t.sets;
      } else {
        ++t.resets;
      }
    }
  }
  return t;
}

BitTransitions total_all_bits(std::span<const UnitPlan> plans) {
  BitTransitions t;
  for (const auto& p : plans) {
    t.sets += p.all_ones;
    t.resets += p.all_zeros;
    if (p.tag_changed) {
      if (p.tag_to_one) {
        ++t.sets;
      } else {
        ++t.resets;
      }
    }
  }
  return t;
}

}  // namespace tw::schemes

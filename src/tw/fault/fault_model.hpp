#pragma once
// FaultModel: the deterministic decision engine behind fault injection.
//
// Two injection levels share one model:
//  * system level — the memory controller calls plan_line_faults() after
//    the scheme plans a write; the model decides how many programmed bits
//    transiently failed, replays the bounded verify-and-retry ladder
//    (each attempt re-packed by the scheme with exponentially widened
//    pulses), and returns the extra latency / pulses / FailedLine flag;
//  * bit level — as a pcm::CellFaultHook on a PcmArray, the model fails
//    individual program pulses; core::HwExecutor's verify-and-retry loop
//    re-drives the failed cells (tests cross-check the two levels).
//
// Determinism: every decision hashes its stable site coordinates
// (seed, line address, per-line service sequence, pass, attempt — or cell
// index and pulse count at bit level) through SplitMix64 into a private
// xoshiro stream. No shared RNG state, so decisions are independent of
// event interleaving, thread count and call order.

#include <vector>

#include "tw/common/bits.hpp"
#include "tw/common/rng.hpp"
#include "tw/common/types.hpp"
#include "tw/fault/fault.hpp"
#include "tw/pcm/array.hpp"
#include "tw/schemes/write_scheme.hpp"

namespace tw::fault {

/// What the fault model did to one line-write service.
struct LineFaultOutcome {
  Tick extra_latency = 0;      ///< retry sub-requests appended to service
  BitTransitions retry_pulses; ///< pulses re-driven across all attempts
  u32 attempts = 0;            ///< retry attempts performed (<= max_retries)
  u32 failed_sets = 0;         ///< SET bits still failed after the ladder
  u32 failed_resets = 0;       ///< RESET bits still failed after the ladder
  /// Retries exhausted with bits still failed: the line is surfaced as a
  /// FailedLine stat (higher-level ECC territory) instead of asserting.
  bool line_failed = false;
};

class FaultModel final : public pcm::CellFaultHook {
 public:
  /// `total_banks` sizes the stuck-bank map; `seed` roots every decision.
  FaultModel(const FaultConfig& cfg, u32 total_banks, u64 seed);

  const FaultConfig& config() const { return cfg_; }
  u64 seed() const { return seed_; }

  // -- system level (controller) ------------------------------------------

  /// Decide the transient-failure fate of one planned line write.
  /// `service_seq` is the controller's monotone per-service counter,
  /// `line_wear_bits` the bits_programmed of the line's wear ledger,
  /// `line_bits` the number of data cells per line (wear normalization).
  /// `scheme.plan_retry(...)` prices each retry attempt.
  LineFaultOutcome plan_line_faults(Addr line, u64 service_seq,
                                    const schemes::ServicePlan& plan,
                                    const schemes::WriteScheme& scheme,
                                    u64 line_wear_bits, u32 line_bits) const;

  /// True when `bank` hard-failed at power-on.
  bool bank_stuck(u32 bank) const { return stuck_[bank] != 0; }
  bool any_bank_stuck() const { return stuck_count_ > 0; }
  u32 stuck_banks() const { return stuck_count_; }
  /// Healthy bank that absorbs a stuck bank's traffic (the next healthy
  /// bank cyclically); identity for healthy banks.
  u32 remap_bank(u32 bank) const { return remap_[bank]; }

  /// Power-budget multiplier at `now` (brownout_budget_factor inside a
  /// brown-out window, 1.0 outside).
  double budget_factor(Tick now) const {
    return in_brownout(now) ? cfg_.brownout_budget_factor : 1.0;
  }
  bool in_brownout(Tick now) const {
    return cfg_.brownout_period > 0 && cfg_.brownout_duration > 0 &&
           cfg_.brownout_budget_factor < 1.0 &&
           now % cfg_.brownout_period < cfg_.brownout_duration;
  }

  /// PALP concurrency allowance at `now`: brown-out shrinks the nominal
  /// concurrent-partition (or read-while-write) allowance by the same
  /// factor that shrinks packing budgets, floored at `floor_allow`
  /// (1 keeps writes progressing serially; 0 lets reads wait the
  /// brown-out out entirely).
  u32 palp_allowance(u32 nominal, Tick now, u32 floor_allow) const {
    const double f = budget_factor(now);
    if (f >= 1.0) return nominal;
    const u32 shrunk = static_cast<u32>(static_cast<double>(nominal) * f);
    return shrunk > floor_allow ? shrunk : floor_allow;
  }

  // -- bit level (PcmArray hook) ------------------------------------------

  /// pcm::CellFaultHook: fail this pulse? Pure in (bit, value, pulse,
  /// attempt) and the model's seed.
  bool pulse_fails(u64 bit, bool value, u64 pulse,
                   u32 attempt) const override;

  /// Effective per-bit failure probability for a pulse kind, given the
  /// per-cell wear estimate and the retry attempt (exposed for tests).
  double effective_prob(bool set_pulse, u64 cell_wear, u32 attempt) const;

 private:
  /// Deterministic failure count among `count` independent bits with
  /// probability `p`, from site hash `h`.
  u32 draw_failures(u64 h, u32 count, double p) const;

  FaultConfig cfg_;
  u64 seed_;
  std::vector<u8> stuck_;  ///< per-bank stuck flag
  std::vector<u32> remap_; ///< per-bank remap target (identity if healthy)
  u32 stuck_count_ = 0;
};

}  // namespace tw::fault

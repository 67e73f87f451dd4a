#pragma once
// Fault-injection configuration: what can go wrong in the PCM substrate
// and how aggressively. Everything here is deterministic given (config,
// seed): the FaultModel derives every decision by hashing stable site
// coordinates (address, per-line write sequence, attempt), never from a
// shared stream, so injected faults are independent of event interleaving
// and thread count — the same properties the rest of the simulator
// guarantees (see tests/determinism_test.cpp).
//
// Fault taxonomy (DESIGN.md §11):
//  * transient pulse failures — a programmed bit fails to flip its cell
//    with probability set_fail_prob / reset_fail_prob (the SET and RESET
//    pulses stress cells differently); failed bits are re-driven with
//    exponentially widened pulses up to max_retries attempts;
//  * endurance wear-out — once a line's per-cell program count (from its
//    wear ledger in the mem::DataStore slot) passes wear_knee, its failure
//    probability escalates linearly with accumulated wear;
//  * stuck banks — a whole bank (all its subarrays) hard-fails at power
//    on; the controller degrades gracefully by remapping its traffic onto
//    the neighbouring healthy bank (Start-Gap keeps content addressable);
//  * charge-pump brown-outs — periodic windows in which the shared pump
//    can only sustain a fraction of the nominal power budget, shrinking
//    every scheme's packing/concurrency budget for writes planned inside
//    the window.

#include <optional>
#include <string_view>

#include "tw/common/types.hpp"

namespace tw::fault {

/// Named fault presets selectable on every figure/harness binary via
/// --fault-profile=none|light|heavy|stuck-bank.
enum class FaultProfile : u8 {
  kNone,       ///< faults disabled (bit-identical to the fault-free build)
  kLight,      ///< rare transient failures + shallow brown-outs
  kHeavy,      ///< aggressive failures, endurance wear-out, deep brown-outs
  kStuckBank,  ///< light transients plus one bank stuck at power-on
};

/// All fault-injection knobs. Default-constructed = everything off.
struct FaultConfig {
  static constexpr u32 kNoStuckBank = 0xFFFFFFFFu;

  /// Per-programmed-bit transient failure probability, split by pulse
  /// kind (SET pulses are long/low-current, RESET short/high-current).
  double set_fail_prob = 0.0;
  double reset_fail_prob = 0.0;

  /// Bounded verify-and-retry: failed bits are re-driven at most this
  /// many times before the line is surfaced as a FailedLine stat.
  u32 max_retries = 3;
  /// Pulse-width multiplier per retry attempt (exponential widening:
  /// attempt a re-drives with width x retry_widening^a).
  double retry_widening = 2.0;
  /// Failure-probability multiplier per attempt — widened pulses deposit
  /// more energy and fail less often.
  double retry_fail_damping = 0.5;

  /// Per-cell program count at which endurance failures begin (0 = off).
  /// The model reads the line-granular wear ledger (the line's
  /// mem::DataStore slot) and uses bits_programmed / line_bits as the
  /// per-cell estimate.
  u64 wear_knee = 0;
  /// Failure-probability floor for cells past the knee (escalates
  /// linearly with wear beyond it).
  double worn_fail_prob = 0.0;

  /// Force this flat bank stuck from construction (kNoStuckBank = none).
  u32 stuck_bank = kNoStuckBank;
  /// Additionally, each bank is independently stuck at power-on with this
  /// probability (decided once, from the seed).
  double stuck_bank_prob = 0.0;

  /// Charge-pump brown-out windows: the first `brownout_duration` ticks
  /// of every `brownout_period` shrink the power budget to
  /// brownout_budget_factor x nominal. period = 0 disables.
  Tick brownout_period = 0;
  Tick brownout_duration = 0;
  double brownout_budget_factor = 1.0;

  /// True when any fault mechanism is active. run_system() skips building
  /// a FaultModel entirely when false, so the disabled path costs nothing.
  bool enabled() const {
    return set_fail_prob > 0.0 || reset_fail_prob > 0.0 || wear_knee > 0 ||
           stuck_bank != kNoStuckBank || stuck_bank_prob > 0.0 ||
           (brownout_period > 0 && brownout_duration > 0 &&
            brownout_budget_factor < 1.0);
  }

  bool valid() const {
    return set_fail_prob >= 0.0 && set_fail_prob <= 1.0 &&
           reset_fail_prob >= 0.0 && reset_fail_prob <= 1.0 &&
           retry_widening >= 1.0 && retry_fail_damping > 0.0 &&
           retry_fail_damping <= 1.0 && worn_fail_prob >= 0.0 &&
           worn_fail_prob <= 1.0 && stuck_bank_prob >= 0.0 &&
           stuck_bank_prob < 1.0 && brownout_budget_factor > 0.0 &&
           brownout_budget_factor <= 1.0 &&
           (brownout_period == 0 || brownout_duration <= brownout_period);
  }
};

/// The preset behind each named profile.
FaultConfig profile_config(FaultProfile profile);

/// Canonical CLI spelling of a profile.
std::string_view profile_name(FaultProfile profile);

/// Parse a CLI spelling ("none", "light", "heavy", "stuck-bank");
/// std::nullopt for anything else.
std::optional<FaultProfile> parse_fault_profile(std::string_view name);

}  // namespace tw::fault

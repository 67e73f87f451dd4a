#pragma once
// PARSEC 2.0 workload profiles (Table III + Figure 3 calibration).
//
// The paper drives gem5 with eight multi-threaded PARSEC workloads. We
// cannot replay the original traces, so each workload is characterized by
// the statistics the write schemes actually observe:
//   * memory-level request rates (RPKI / WPKI, Table III — post-L3),
//   * per-64-bit-unit RESET/SET counts after data inversion (Figure 3;
//     the text pins the average at 2.9 RESET + 6.7 SET = 9.6 changed bits,
//     blackscholes at ~2 total, vips at ~19, and names vips/ferret as the
//     near-fifty-fifty outliers — per-workload values are estimated from
//     the printed bars within those constraints),
//   * data-sharing intensity (Table III sharing column).

#include <string>
#include <string_view>
#include <vector>

#include "tw/common/types.hpp"

namespace tw::workload {

/// Qualitative levels from Table III.
enum class Level : u8 { kLow, kMedium, kHigh };

/// Write-content distribution class. kMutate is the paper-calibrated
/// Figure 3 mixture (the default everywhere); the other classes open the
/// content axis the encoder pre-stage (tw/encode/) is measured against.
enum class ContentClass : u8 {
  kMutate,        ///< Figure 3 rewrite/Poisson-mutation mixture
  kCompressible,  ///< narrow values: constant high half (sign extension)
  kZipfByte,      ///< bytes from a skewed 256-symbol alphabet
  kAdversarial,   ///< anti-code: flips exactly half the bits every write
};

/// Canonical short name ("mutate", "compressible", "zipf", "adversarial").
const char* content_class_name(ContentClass c);

/// Statistical characterization of one workload.
struct WorkloadProfile {
  std::string name;
  std::string domain;          ///< application domain (Table III)
  double rpki = 1.0;           ///< memory reads per kilo-instruction
  double wpki = 0.5;           ///< memory writes per kilo-instruction

  /// Write content is a two-component mixture, reflecting real traces:
  /// with probability `line_rewrite_prob` a write replaces the whole line
  /// with fresh content (media frames, storage streams — the heavy tail
  /// that drives Tetris above 1 write unit and makes vips/ferret look
  /// fifty-fifty); otherwise each unit gets a sparse Poisson mutation.
  double line_rewrite_prob = 0.02;
  double mean_resets = 2.9;  ///< small-write RESETs per 64-bit unit
  double mean_sets = 6.7;    ///< small-write SETs per 64-bit unit

  /// Payload distribution. All paper profiles use kMutate; the other
  /// classes are synthetic axes for the encoder ablations and reuse the
  /// profile's rate/burstiness/sharing parameters unchanged.
  ContentClass content = ContentClass::kMutate;

  /// Figure 3 targets (per-unit counts after inversion, measured over the
  /// whole mixture). Locked by tests against the generator's output.
  double fig3_resets = 2.9;
  double fig3_sets = 6.7;

  Level sharing = Level::kMedium;   ///< data usage of sharing
  Level exchange = Level::kMedium;  ///< data usage of exchange

  /// Temporal burstiness in [0,1]: 0 = smooth geometric inter-arrivals;
  /// higher values concentrate requests into ON periods (8x the rate)
  /// while preserving the average RPKI/WPKI. Bursts are what fill the
  /// 32-entry write queue and trigger strict drains.
  double burstiness = 0.0;

  /// Per-core private working set, in cache lines.
  u64 working_set_lines = 64 * 1024;
  /// Ones-fraction of first-touch memory content. SET-dominant profiles
  /// start zero-rich so repeated writes can keep SETting without
  /// saturating.
  double initial_ones_fraction = 0.5;

  double mem_ops_per_kilo() const { return rpki + wpki; }
  double write_fraction() const {
    const double t = rpki + wpki;
    return t <= 0.0 ? 0.0 : wpki / t;
  }
  double mean_changed_bits() const { return fig3_resets + fig3_sets; }
};

/// The eight PARSEC 2.0 workloads of Table III, in the paper's order.
const std::vector<WorkloadProfile>& parsec_profiles();

/// Look up a profile by name; nullptr if unknown.
const WorkloadProfile* find_profile(std::string_view name);

/// Look up a profile by name; throws ContractViolation if unknown.
const WorkloadProfile& profile_by_name(std::string_view name);

/// Fraction of accesses that target the cross-core shared region for a
/// sharing level (low/medium/high).
double shared_fraction(Level sharing);

}  // namespace tw::workload

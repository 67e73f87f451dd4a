#pragma once
// Synthetic trace generator: turns a WorkloadProfile into per-core streams
// of memory-level requests with controlled data-content statistics.
//
//  * Inter-request gaps are geometric with mean 1000/(RPKI+WPKI)
//    instructions; each request is a write with probability WPKI/(R+W).
//  * Addresses come from a per-core private region plus a cross-core
//    shared region (Table III sharing level), uniform within each.
//  * Write payloads are *mutations of current memory content*: per data
//    unit, Poisson(mean_sets) zero-bits are raised and
//    Poisson(mean_resets) one-bits are cleared, so the bit-transition
//    statistics the schemes measure match Figure 3 by construction.

#include "tw/common/rng.hpp"
#include "tw/common/types.hpp"
#include "tw/mem/data_store.hpp"
#include "tw/pcm/line.hpp"
#include "tw/pcm/params.hpp"
#include "tw/workload/profiles.hpp"
#include "tw/workload/source.hpp"

#include <vector>

namespace tw::workload {

/// One mutated data unit: of the low `unit_bits` of `logical`, a
/// `sets`-distributed number of zero bits are raised and a
/// `resets`-distributed number of one bits cleared, each count capped by
/// the bits available and the positions chosen uniformly without
/// replacement.
u64 mutate_unit(u64 logical, u32 unit_bits, const PoissonSampler& sets,
                const PoissonSampler& resets, Rng& rng);

/// Deterministic per-(workload, seed) trace source.
class TraceGenerator : public RequestSource {
 public:
  TraceGenerator(const WorkloadProfile& profile,
                 const pcm::GeometryParams& geometry, u32 cores, u64 seed);

  /// Next request for a core. Streams are independent across cores.
  TraceOp next(u32 core) override;

  /// Synthesize the write payload for `addr` against the current content
  /// of `store` (does not modify the store).
  pcm::LogicalLine make_write_data(Addr addr, mem::DataStore& store,
                                   u32 core) override;

  const WorkloadProfile& profile() const { return profile_; }

  /// The ones-bias the backing DataStore should be initialized with.
  double initial_ones_fraction() const {
    return profile_.initial_ones_fraction;
  }

 private:
  Addr pick_address(u32 core, Rng& rng);
  u64 modulate_gap(u64 gap, u32 core, Rng& rng);
  u64 compressible_unit(Rng& rng);
  u64 zipf_byte_unit(Rng& rng);
  u64 adversarial_unit(u64 logical, Rng& rng);

  WorkloadProfile profile_;
  u32 line_bytes_;
  u32 units_per_line_;
  u32 unit_bits_;
  double shared_frac_;
  PoissonSampler sets_;    ///< zero bits raised per mutated unit
  PoissonSampler resets_;  ///< one bits cleared per mutated unit
  std::vector<Rng> core_rng_;
  std::vector<bool> in_burst_;  ///< per-core ON/OFF modulation state
};

}  // namespace tw::workload

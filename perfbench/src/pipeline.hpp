#pragma once
// The run_system pipeline rebuilt from public constructors, so the traced
// run can put probes on its layer seams. Built without probes it is the
// same object graph run_system builds; the per-cell digest check holds the
// two to bit-identical simulated results.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "probes.hpp"
#include "tw/cpu/multicore.hpp"
#include "tw/harness/experiment.hpp"
#include "tw/mem/memory_system.hpp"
#include "tw/sim/simulator.hpp"
#include "tw/stats/registry.hpp"
#include "tw/workload/generator.hpp"

namespace perfbench {

/// One simulation cell: what run_system takes.
struct Cell {
  tw::harness::SystemConfig cfg;
  tw::workload::WorkloadProfile profile;
  tw::schemes::SchemeKind kind = tw::schemes::SchemeKind::kTetris;

  /// "profile/scheme" plus any distinguishing knob, for messages.
  std::string label;
};

/// Hash of every simulated RunMetrics field (doubles by bit pattern, so
/// equal digests mean bit-identical results). Host-side trace counters
/// are left out.
u64 digest(const tw::harness::RunMetrics& m);

/// Layer observations of one probed cell.
struct CellProbes {
  SimSamples sim;
  double write_units = 0.0;  ///< summed over channel schemes
  u64 lines_planned = 0;
};

class Pipeline {
 public:
  /// Builds every simulator object of `cell`. With a log, the cores see
  /// the workload and memory through probes and every channel's scheme is
  /// wrapped in one.
  Pipeline(const Cell& cell, SpanLog* log);
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Schedule the cores' first events (the end of set-up).
  void start();

  /// Run to completion and harvest the metrics as run_system does.
  tw::harness::RunMetrics finish();

  /// Probe observations (valid after finish(); empty without a log).
  CellProbes probes() const;

 private:
  const Cell& cell_;
  std::vector<ProbedScheme*> schemes_;  ///< owned by the channels
  tw::sim::Simulator sim_;
  tw::stats::Registry reg_;
  std::optional<tw::mem::MemorySystem> msys_;
  std::optional<tw::workload::TraceGenerator> gen_;
  std::optional<ProbedSource> source_;
  std::optional<ProbedMemory> memory_;
  std::optional<tw::cpu::MultiCore> cpus_;
};

/// Run one cell through the pipeline; with a log, probe data goes to
/// `probes` (which may then not be null).
tw::harness::RunMetrics run_cell(const Cell& cell, SpanLog* log,
                                 CellProbes* probes);

}  // namespace perfbench

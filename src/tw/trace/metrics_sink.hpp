#pragma once
// Periodic metrics snapshots: a MetricsSnapshotter samples registered
// gauges (queue depths, bank occupancy, budget utilization — anything
// expressible as `double()`) on a fixed simulated-time epoch, feeding
// each sample into the stats::Registry (as `trace.<gauge>` accumulators)
// and, when the kMetrics category is live, emitting counter records that
// render as charts in the Chrome trace. A CSV writer turns collected
// counter records into a long-format table for offline analysis.
//
// Gauges are plain std::functions wired up by the harness, so this module
// needs no knowledge of the controller or PCM model.

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "tw/sim/simulator.hpp"
#include "tw/stats/registry.hpp"
#include "tw/trace/tracer.hpp"

namespace tw::trace {

class MetricsSnapshotter {
 public:
  /// Samples every `epoch` ticks of simulated time, starting one epoch
  /// after start() is called.
  MetricsSnapshotter(sim::Simulator& sim, stats::Registry& reg, Tick epoch)
      : sim_(sim), reg_(reg), epoch_(epoch) {}
  MetricsSnapshotter(const MetricsSnapshotter&) = delete;
  MetricsSnapshotter& operator=(const MetricsSnapshotter&) = delete;

  /// Register a gauge before start(). Returns its index (the kMetrics
  /// track it will chart on).
  u32 add_gauge(std::string name, std::function<double()> fn);

  /// Schedule the sampling chain. The chain re-arms only while the
  /// simulator still has other pending events, so it never keeps an
  /// otherwise-drained simulation alive.
  void start();

  /// Sample every gauge once, immediately, stamped at tick `at`. The
  /// epoch chain passes the simulator's clock; the harness passes the
  /// run's last executed event for the final partial epoch.
  void sample(Tick at);

  /// Tick of the sample being taken. Gauges that depend on time read
  /// this rather than the simulator's clock, which a finished run has
  /// already moved on to its time limit.
  Tick now() const { return now_; }

  u64 samples_taken() const { return samples_; }
  const std::vector<std::string>& gauge_names() const { return names_; }

 private:
  void arm();

  sim::Simulator& sim_;
  stats::Registry& reg_;
  Tick epoch_;
  Tick now_ = 0;
  u64 samples_ = 0;
  std::vector<std::string> names_;
  std::vector<std::function<double()>> gauges_;
  std::vector<stats::Accumulator*> accs_;
};

/// Long-format CSV of the kCounter records in `records`:
///   time_ns,name,value
/// Gauge names resolve through the manifest's counter_names table.
void write_metrics_csv(std::ostream& out,
                       const std::vector<TraceRecord>& records,
                       const RunManifest& manifest);

/// Convenience: write to `path`. Returns false if the file can't be
/// opened.
bool write_metrics_csv_file(const std::string& path,
                            const std::vector<TraceRecord>& records,
                            const RunManifest& manifest);

}  // namespace tw::trace

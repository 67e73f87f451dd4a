#pragma once
// Per-layer metrics of a traced pass: span counts, self times and host
// latency percentiles per seam, simulated per-request times from the
// completion callbacks, and registry counts from the cells' RunMetrics.

#include <string>
#include <vector>

#include "pipeline.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Per-layer metrics of one traced pass over a workload. `run_wall_s` is
/// the host time the pass spent running cells (set-up excluded); the
/// residual is that time minus every probed span's self time. Units say
/// whose time a value is: host_s/host_ns for the host, sim_ns for the
/// simulated machine.
Metrics layer_metrics(const std::vector<Span>& spans,
                      const std::vector<CellProbes>& probes,
                      const std::vector<tw::harness::RunMetrics>& results,
                      double run_wall_s);

/// The end-to-end metrics of an untraced run: median pass wall time,
/// simulated instructions retired per host second, peak RSS in MiB and
/// median set-up time per pass.
Metrics end_to_end_metrics(double wall_s, u64 retired, double peak_rss_mb,
                           double setup_s);

/// Element-wise median of same-shaped metric lists (names and units from
/// the first).
Metrics median_metrics(const std::vector<Metrics>& passes);

/// Median of `v` (mean of the middle two for even sizes); 0 when empty.
double median(std::vector<double> v);

}  // namespace perfbench

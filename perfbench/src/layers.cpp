#include "layers.hpp"

#include <algorithm>
#include <array>

namespace perfbench {

namespace {

/// Value at quantile q (nearest rank) of `v`; 0 when empty.
template <typename T>
double percentile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t k =
      std::min(v.size() - 1,
               static_cast<std::size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

struct LayerTotals {
  u64 calls = 0;
  u64 self_ns = 0;
  std::vector<u64> durations_ns;
};

/// Self time of every span: its duration minus the durations of its
/// direct children (same order as `spans`).
std::vector<u64> self_times_ns(const std::vector<Span>& spans) {
  std::vector<u64> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent != kNoParent) child_ns[s.parent] += s.duration_ns();
  }
  std::vector<u64> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].duration_ns() - child_ns[i];
  }
  return self;
}

}  // namespace

Metrics layer_metrics(const std::vector<Span>& spans,
                      const std::vector<CellProbes>& probes,
                      const std::vector<tw::harness::RunMetrics>& results,
                      double run_wall_s) {
  std::array<LayerTotals, kLayerCount> layer{};
  const std::vector<u64> self = self_times_ns(spans);
  u64 accepted = 0, accepted_writes = 0, batch_lines = 0, self_total_ns = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    LayerTotals& t = layer[static_cast<std::size_t>(s.layer)];
    ++t.calls;
    t.self_ns += self[i];
    self_total_ns += self[i];
    t.durations_ns.push_back(s.duration_ns());
    if (s.layer == Layer::kEnqueue && (s.arg & kArgAccepted) != 0) {
      ++accepted;
      if ((s.arg & kArgWrite) != 0) ++accepted_writes;
    }
    if (s.layer == Layer::kBatch) batch_lines += s.arg;
  }
  auto at = [&](Layer l) -> const LayerTotals& {
    return layer[static_cast<std::size_t>(l)];
  };
  auto calls = [&](Layer l) { return static_cast<double>(at(l).calls); };
  auto self_s = [&](Layer l) {
    return static_cast<double>(at(l).self_ns) * 1e-9;
  };
  auto p_ns = [&](Layer l, double q) {
    return percentile(at(l).durations_ns, q);
  };

  SimSamples sim;
  double write_units = 0.0;
  u64 lines_planned = 0;
  for (const CellProbes& p : probes) {
    sim.read_latency.insert(sim.read_latency.end(), p.sim.read_latency.begin(),
                            p.sim.read_latency.end());
    sim.queue_wait.insert(sim.queue_wait.end(), p.sim.queue_wait.begin(),
                          p.sim.queue_wait.end());
    sim.write_service.insert(sim.write_service.end(),
                             p.sim.write_service.begin(),
                             p.sim.write_service.end());
    write_units += p.write_units;
    lines_planned += p.lines_planned;
  }
  auto sim_ns = [](const std::vector<tw::Tick>& v, double q) {
    return percentile(v, q) / 1000.0;  // ps -> ns
  };

  tw::harness::RunMetrics sum;
  for (const auto& r : results) {
    sum.sim_events += r.sim_events;
    sum.dispatch_rounds += r.dispatch_rounds;
    sum.read_q_peak = std::max(sum.read_q_peak, r.read_q_peak);
    sum.write_q_peak = std::max(sum.write_q_peak, r.write_q_peak);
    sum.gap_moves += r.gap_moves;
    sum.write_pauses += r.write_pauses;
    sum.dram_hits += r.dram_hits;
    sum.dram_misses += r.dram_misses;
    sum.dram_writebacks += r.dram_writebacks;
    sum.palp_overlapped_reads += r.palp_overlapped_reads;
    sum.palp_pump_stalls += r.palp_pump_stalls;
    sum.fault_retries += r.fault_retries;
    sum.failed_lines += r.failed_lines;
  }
  const double residual_s =
      run_wall_s - static_cast<double>(self_total_ns) * 1e-9;
  const double events = static_cast<double>(sum.sim_events);
  const double enqueues = calls(Layer::kEnqueue);

  return {
      {"workload.next_calls", calls(Layer::kNext), "count"},
      {"workload.next_self_s", self_s(Layer::kNext), "host_s"},
      {"workload.synth_calls", calls(Layer::kSynth), "count"},
      {"workload.synth_self_s", self_s(Layer::kSynth), "host_s"},
      {"workload.synth_ns_p50", p_ns(Layer::kSynth, 0.50), "host_ns"},
      {"workload.synth_ns_p99", p_ns(Layer::kSynth, 0.99), "host_ns"},
      {"workload.synth_per_write",
       ratio(calls(Layer::kSynth), static_cast<double>(accepted_writes)),
       "ratio"},
      {"cpu.enqueue_attempts", enqueues, "count"},
      {"cpu.enqueue_refused", enqueues - static_cast<double>(accepted),
       "count"},
      {"cpu.admit_ratio", ratio(static_cast<double>(accepted), enqueues),
       "ratio"},
      {"cpu.space_wakeups", calls(Layer::kSpaceWake), "count"},
      {"cpu.space_wake_self_s", self_s(Layer::kSpaceWake), "host_s"},
      {"cpu.read_wake_self_s", self_s(Layer::kReadDone), "host_s"},
      {"cpu.write_done_self_s", self_s(Layer::kWriteDone), "host_s"},
      {"mem.enqueue_self_s", self_s(Layer::kEnqueue), "host_s"},
      {"mem.enqueue_ns_p50", p_ns(Layer::kEnqueue, 0.50), "host_ns"},
      {"mem.enqueue_ns_p99", p_ns(Layer::kEnqueue, 0.99), "host_ns"},
      {"mem.read_sim_ns_p50", sim_ns(sim.read_latency, 0.50), "sim_ns"},
      {"mem.read_sim_ns_p99", sim_ns(sim.read_latency, 0.99), "sim_ns"},
      {"mem.queue_wait_sim_ns_p50", sim_ns(sim.queue_wait, 0.50), "sim_ns"},
      {"mem.service_sim_ns_p50", sim_ns(sim.write_service, 0.50), "sim_ns"},
      {"mem.dispatch_rounds", static_cast<double>(sum.dispatch_rounds),
       "count"},
      {"mem.read_q_peak", static_cast<double>(sum.read_q_peak), "count"},
      {"mem.write_q_peak", static_cast<double>(sum.write_q_peak), "count"},
      {"mem.gap_moves", static_cast<double>(sum.gap_moves), "count"},
      {"mem.write_pauses", static_cast<double>(sum.write_pauses), "count"},
      {"mem.dram_hit_rate",
       ratio(static_cast<double>(sum.dram_hits),
             static_cast<double>(sum.dram_hits + sum.dram_misses)),
       "ratio"},
      {"mem.dram_writebacks", static_cast<double>(sum.dram_writebacks),
       "count"},
      {"mem.palp_overlapped_reads",
       static_cast<double>(sum.palp_overlapped_reads), "count"},
      {"mem.palp_pump_stalls", static_cast<double>(sum.palp_pump_stalls),
       "count"},
      {"fault.retries", static_cast<double>(sum.fault_retries), "count"},
      {"fault.failed_lines", static_cast<double>(sum.failed_lines), "count"},
      {"scheme.plan_calls", calls(Layer::kPlan), "count"},
      {"scheme.plan_self_s", self_s(Layer::kPlan), "host_s"},
      {"scheme.plan_ns_p50", p_ns(Layer::kPlan, 0.50), "host_ns"},
      {"scheme.plan_ns_p99", p_ns(Layer::kPlan, 0.99), "host_ns"},
      {"scheme.batch_calls", calls(Layer::kBatch), "count"},
      {"scheme.batch_lines", static_cast<double>(batch_lines), "count"},
      {"scheme.batch_self_s", self_s(Layer::kBatch), "host_s"},
      {"scheme.retry_calls", calls(Layer::kRetry), "count"},
      {"scheme.retry_self_s", self_s(Layer::kRetry), "host_s"},
      {"scheme.write_units",
       ratio(write_units, static_cast<double>(lines_planned)), "units"},
      {"sim.events", events, "count"},
      {"sim.residual_self_s", residual_s, "host_s"},
      {"sim.residual_ns_per_event", ratio(residual_s * 1e9, events),
       "host_ns"},
      {"trace.spans", static_cast<double>(spans.size()), "count"},
      {"trace.wall_s", run_wall_s, "host_s"},
  };
}

Metrics end_to_end_metrics(double wall_s, u64 retired, double peak_rss_mb,
                           double setup_s) {
  return {
      {"wall_s", wall_s, "s"},
      {"minstr_per_s", ratio(static_cast<double>(retired) / 1e6, wall_s),
       "Minstr/s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"setup_s", setup_s, "s"},
  };
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Metrics median_metrics(const std::vector<Metrics>& passes) {
  if (passes.empty()) return {};
  Metrics out = passes.front();
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::vector<double> v;
    for (const Metrics& p : passes) v.push_back(p[i].value);
    out[i].value = median(std::move(v));
  }
  return out;
}

}  // namespace perfbench

#include "tw/trace/metrics_sink.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>

namespace tw::trace {

u32 MetricsSnapshotter::add_gauge(std::string name,
                                  std::function<double()> fn) {
  const u32 idx = static_cast<u32>(gauges_.size());
  accs_.push_back(&reg_.accumulator("trace." + name));
  names_.push_back(std::move(name));
  gauges_.push_back(std::move(fn));
  return idx;
}

void MetricsSnapshotter::sample(Tick at) {
  now_ = at;
  for (u32 i = 0; i < gauges_.size(); ++i) {
    const double v = gauges_[i]();
    accs_[i]->add(v);
    if (on(Category::kMetrics)) {
      emit_counter(Category::kMetrics, Op::kGauge,
                   track_id(Track::kMetrics, i), at, v);
    }
  }
  ++samples_;
}

void MetricsSnapshotter::start() { arm(); }

void MetricsSnapshotter::arm() {
  sim_.schedule_in(
      epoch_,
      [this] {
        sample(sim_.now());
        // Re-arm only while the system is still doing work; the sampling
        // event itself must not keep the simulation alive.
        if (sim_.pending() > 0) arm();
      },
      sim::Priority::kDefault);
}

void write_metrics_csv(std::ostream& out,
                       const std::vector<TraceRecord>& records,
                       const RunManifest& manifest) {
  out << "time_ns,name,value\n";
  char buf[96];
  for (const auto& r : records) {
    if (r.kind != Kind::kCounter) continue;
    const u32 idx = track_index(r.track);
    const char* name = idx < manifest.counter_names.size()
                           ? manifest.counter_names[idx].c_str()
                           : op_name(r.op);
    std::snprintf(buf, sizeof(buf), "%.3f,", to_ns(r.tick));
    out << buf << name;
    std::snprintf(buf, sizeof(buf), ",%.17g\n", counter_value(r));
    out << buf;
  }
}

bool write_metrics_csv_file(const std::string& path,
                            const std::vector<TraceRecord>& records,
                            const RunManifest& manifest) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  write_metrics_csv(out, records, manifest);
  return out.good();
}

}  // namespace tw::trace

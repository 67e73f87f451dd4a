// Multi-channel scaling microbenchmark.
//
// Runs one write-heavy full-system cell (vips, Tetris scheme) at
// channels = 1/2/4/8 with everything else fixed and reports, per point:
//
//   * wall-clock simulator events per second (kernel throughput of the
//     sharded engine's serial lockstep loop — the number the
//     BENCH_channels.json regression gate tracks), and
//   * simulated aggregate write throughput: serviced line writes per
//     simulated second. Adding channels multiplies the write bandwidth
//     the cores can sink, so a memory-bound run finishes in ~1/C the
//     simulated time at the same write count.
//
// The scaling gate is on the *simulated* aggregate throughput
// (agg_scaling_8ch = thpt(8ch) / thpt(1ch), required >= 6x): wall-clock
// throughput depends on the runner, and a run on one thread gains no
// wall time from more channels (each adds simulator events), while the
// simulated bandwidth a sharded topology delivers is machine-independent
// and deterministic.

#include <cstdio>
#include <vector>

#include "bench_util.hpp"

using namespace tw;

namespace {

struct Point {
  u32 channels = 1;
  double wall_ms = 0.0;
  double events_per_sec = 0.0;
  double sim_writes_per_sec = 0.0;  ///< writes per *simulated* second
  u64 writes = 0;
  double runtime_ms = 0.0;  ///< simulated
};

void write_channels_json(const std::string& path, const bench::Options& o,
                         const std::vector<Point>& pts, double scaling,
                         double total_ms, double agg_events_per_sec) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"bench\": \"micro_channels\",\n"
      << "  \"config\": \"" << (o.quick ? "quick" : "full")
      << " ops=" << o.target_ops_per_core << " seed=" << o.seed
      << " workload=vips scheme=tetris cores=48 channels=1/2/4/8\",\n"
      << "  \"wall_ms\": " << fixed(total_ms, 2) << ",\n"
      << "  \"events_per_sec\": " << fixed(agg_events_per_sec, 1) << ",\n"
      << "  \"sim_writes_per_sec\": " << fixed(pts.back().sim_writes_per_sec, 1)
      << ",\n"
      << "  \"agg_scaling_8ch\": " << fixed(scaling, 3) << "\n"
      << "}\n";
  std::printf("(benchmark baseline written to %s)\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options o = bench::Options::parse(argc, argv);

  std::printf("micro_channels: multi-channel write-bandwidth scaling\n");
  std::printf("=====================================================\n");
  std::printf(
      "(vips, Tetris, 48 cores; same per-core budget at every point)\n\n");

  const auto& profile = workload::profile_by_name("vips");
  std::vector<Point> pts;
  u64 total_events = 0;
  double total_ms = 0.0;
  std::printf("%8s %10s %14s %16s %18s\n", "channels", "wall ms",
              "sim runtime ms", "wall events/s", "sim writes/s");
  for (const u32 channels : {1u, 2u, 4u, 8u}) {
    harness::SystemConfig cfg = bench::system_config(profile, o);
    cfg.cores = 48;  // enough traffic to keep even 8 channels memory-bound
    cfg.pcm.geometry.channels = channels;
    const bench::WallTimer timer;
    const harness::RunMetrics m =
        harness::run_system(cfg, profile, schemes::SchemeKind::kTetris);
    Point p;
    p.channels = channels;
    p.wall_ms = timer.elapsed_ms();
    p.writes = m.writes;
    p.runtime_ms = m.runtime_ns / 1e6;
    p.events_per_sec =
        p.wall_ms > 0.0 ? static_cast<double>(m.sim_events) /
                              (p.wall_ms / 1000.0)
                        : 0.0;
    p.sim_writes_per_sec = m.runtime_ns > 0.0
                               ? static_cast<double>(m.writes) /
                                     (m.runtime_ns / 1e9)
                               : 0.0;
    total_events += m.sim_events;
    total_ms += p.wall_ms;
    std::printf("%8u %10.1f %14.2f %16.0f %18.0f%s\n", channels, p.wall_ms,
                p.runtime_ms, p.events_per_sec, p.sim_writes_per_sec,
                m.completed ? "" : "  (INCOMPLETE)");
    pts.push_back(p);
  }

  const double scaling =
      pts.front().sim_writes_per_sec > 0.0
          ? pts.back().sim_writes_per_sec / pts.front().sim_writes_per_sec
          : 0.0;
  const double agg_events_per_sec =
      total_ms > 0.0 ? static_cast<double>(total_events) / (total_ms / 1000.0)
                     : 0.0;
  std::printf(
      "\naggregate write-throughput scaling at 8 channels: %.2fx "
      "(gate: >= 6x)\n",
      scaling);
  std::printf("aggregate kernel throughput: %.0f events/sec over %.1f ms\n",
              agg_events_per_sec, total_ms);

  if (!o.json_path.empty()) {
    write_channels_json(o.json_path, o, pts, scaling, total_ms,
                        agg_events_per_sec);
  }
  if (scaling < 6.0) {
    std::fprintf(stderr,
                 "micro_channels: FAIL — 8-channel aggregate write "
                 "throughput scaled only %.2fx over 1 channel (>= 6x "
                 "required)\n",
                 scaling);
    return 1;
  }
  return 0;
}

#pragma once
// Shared plumbing for the figure-reproduction harnesses: CLI flags,
// per-workload instruction budgets, and the standard "system figure"
// runner used by Figures 11-14 (same simulation matrix, different
// metric).

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "tw/common/parallel.hpp"
#include "tw/common/strings.hpp"
#include "tw/common/svg.hpp"
#include "tw/harness/config_file.hpp"
#include "tw/harness/figure.hpp"
#include "tw/trace/record.hpp"

namespace tw::bench {

/// A config flag: an alias that sets config-file keys (see
/// tw/harness/config_file.hpp). "--x=" hands its value to `key`; a bare
/// "--x" sets `key` to true.
struct ConfigFlag {
  std::string_view flag;
  std::string_view key;
  std::string_view enables = {};  ///< a boolean key also set to true
};

inline constexpr ConfigFlag kConfigFlags[] = {
    {"--channels=", "pcm.channels"},
    {"--interleave=", "pcm.channel_interleave"},
    {"--subarrays=", "pcm.subarrays"},
    {"--batch-lines=", "batch.max_lines"},
    {"--palp", "palp.enabled"},
    {"--palp-ways=", "palp.write_ways"},
    {"--palp-rww=", "palp.max_rww_reads"},
    {"--dram", "dram.enabled"},
    {"--dram-mb=", "dram.capacity_mb", "dram.enabled"},
    {"--dram-policy=", "dram.policy", "dram.enabled"},
    {"--encoder=", "encode.kind"},
    {"--fault-profile=", "fault.profile"},
};

/// Apply `arg` to `cfg` if it is a config flag; false if it is not one.
/// A value the key rejects exits 2 with the key's message.
inline bool apply_config_flag(harness::SystemConfig& cfg,
                              std::string_view arg) {
  for (const ConfigFlag& f : kConfigFlags) {
    const bool takes_value = f.flag.back() == '=';
    if (takes_value ? !starts_with(arg, f.flag) : arg != f.flag) continue;
    try {
      if (!f.enables.empty()) harness::set_config_key(cfg, f.enables, "true");
      harness::set_config_key(
          cfg, f.key, takes_value ? arg.substr(f.flag.size()) : "true");
    } catch (const std::runtime_error& e) {
      std::cerr << arg << ": " << e.what() << "\n";
      std::exit(2);
    }
    return true;
  }
  return false;
}

/// Command-line options common to all figure binaries.
struct Options {
  u64 target_ops_per_core = 1500;  ///< memory requests per core to aim for
  u64 max_instructions = 60'000'000;
  u64 seed = 42;
  std::size_t threads = 0;  ///< 0 = hardware concurrency
  std::string csv_path;     ///< optional CSV dump
  std::string svg_path;     ///< optional SVG figure
  std::string json_path;    ///< optional machine-readable BENCH_*.json
  std::string trace_path;   ///< optional Chrome trace of one traced run
  std::string trace_metrics_path;  ///< optional metrics-snapshot CSV
  u32 trace_categories = trace::kAllCategories;
  /// Base of system_config(): Table II defaults plus the config flags.
  harness::SystemConfig config;
  bool quick = false;

  /// Parse the common flags. `own_flags` lists the exact flags the
  /// calling binary reads itself; any other unknown argument exits 2.
  static Options parse(int argc, char** argv,
                       std::initializer_list<std::string_view> own_flags = {}) {
    Options o;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (apply_config_flag(o.config, arg)) continue;
      auto value = [&](const char* prefix) -> const char* {
        return arg.c_str() + std::strlen(prefix);
      };
      if (arg == "--quick") {
        o.quick = true;
        o.target_ops_per_core = 400;
      } else if (starts_with(arg, "--ops=")) {
        o.target_ops_per_core = std::strtoull(value("--ops="), nullptr, 10);
      } else if (starts_with(arg, "--seed=")) {
        o.seed = std::strtoull(value("--seed="), nullptr, 10);
      } else if (starts_with(arg, "--threads=")) {
        o.threads = std::strtoull(value("--threads="), nullptr, 10);
      } else if (starts_with(arg, "--csv=")) {
        o.csv_path = value("--csv=");
      } else if (starts_with(arg, "--svg=")) {
        o.svg_path = value("--svg=");
      } else if (starts_with(arg, "--json=")) {
        o.json_path = value("--json=");
      } else if (starts_with(arg, "--trace=")) {
        o.trace_path = value("--trace=");
      } else if (starts_with(arg, "--trace-metrics=")) {
        o.trace_metrics_path = value("--trace-metrics=");
      } else if (starts_with(arg, "--trace-categories=")) {
        o.trace_categories =
            trace::parse_categories(value("--trace-categories="));
      } else if (arg == "--help" || arg == "-h") {
        std::cout << "flags: --quick --ops=N --seed=N --threads=N "
                     "--channels=N --interleave=line|bank|row "
                     "--subarrays=N --batch-lines=N "
                     "--palp --palp-ways=N --palp-rww=N "
                     "--dram --dram-mb=N --dram-policy=lru|mac "
                     "--encoder=none|flip|wire|coset "
                     "--csv=PATH --svg=PATH --json=PATH --trace=PATH "
                     "--trace-metrics=PATH --trace-categories=LIST "
                     "--fault-profile=none|light|heavy|stuck-bank\n";
        std::exit(0);
      } else if (std::find(own_flags.begin(), own_flags.end(), arg) ==
                 own_flags.end()) {
        std::cerr << "unknown flag '" << arg << "' (see --help)\n";
        std::exit(2);
      }
    }
    return o;
  }
};

/// One machine-readable benchmark baseline record (the BENCH_*.json files
/// at the repo root that track the perf trajectory across PRs).
struct BenchBaseline {
  std::string bench;    ///< e.g. "micro_sim", "fig13"
  std::string config;   ///< human-readable knob summary
  double wall_ms = 0.0;
  double events_per_sec = 0.0;      ///< simulator events executed per second
  double sim_writes_per_sec = 0.0;  ///< line writes serviced per second
  /// Slowdown of the compiled-in-but-disabled tracing path vs. the same
  /// run with emission sites short-circuited (<0 = not measured).
  double trace_overhead_pct = -1.0;
  /// micro_mem's rate on the Start-Gap + write-pausing cells (<0 = not
  /// measured).
  double leveling_events_per_sec = -1.0;
};

inline void write_bench_json(const std::string& path,
                             const BenchBaseline& b) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"bench\": \"" << b.bench << "\",\n"
      << "  \"config\": \"" << b.config << "\",\n"
      << "  \"wall_ms\": " << fixed(b.wall_ms, 2) << ",\n"
      << "  \"events_per_sec\": " << fixed(b.events_per_sec, 1) << ",\n"
      << "  \"sim_writes_per_sec\": " << fixed(b.sim_writes_per_sec, 1);
  if (b.trace_overhead_pct >= 0.0) {
    out << ",\n  \"trace_overhead_pct\": " << fixed(b.trace_overhead_pct, 2);
  }
  if (b.leveling_events_per_sec >= 0.0) {
    out << ",\n  \"leveling_events_per_sec\": "
        << fixed(b.leveling_events_per_sec, 1);
  }
  out << "\n}\n";
  std::cout << "(benchmark baseline written to " << path << ")\n";
}

/// Monotonic wall-clock stopwatch for the baseline records.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double elapsed_ms() const {
    const auto d = std::chrono::steady_clock::now() - start_;
    return std::chrono::duration<double, std::milli>(d).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Instruction budget giving ~target_ops memory requests per core.
inline u64 instructions_for(const workload::WorkloadProfile& p,
                            const Options& o) {
  const double per_kilo = p.mem_ops_per_kilo();
  const u64 wanted = static_cast<u64>(
      static_cast<double>(o.target_ops_per_core) * 1000.0 / per_kilo);
  return std::min(std::max<u64>(wanted, 20'000), o.max_instructions);
}

/// The flags' system config for one workload under `o`.
inline harness::SystemConfig system_config(
    const workload::WorkloadProfile& p, const Options& o) {
  harness::SystemConfig cfg = o.config;
  cfg.instructions_per_core = instructions_for(p, o);
  cfg.seed = o.seed;
  return cfg;
}

/// The paper's evaluated schemes with the DCW baseline in column 0.
inline std::vector<schemes::SchemeKind> paper_columns() {
  return {schemes::SchemeKind::kDcw, schemes::SchemeKind::kFlipNWrite,
          schemes::SchemeKind::kTwoStage, schemes::SchemeKind::kThreeStage,
          schemes::SchemeKind::kTetris};
}

/// Run the full-system matrix with per-workload instruction budgets.
inline harness::Matrix run_paper_matrix(const Options& o) {
  const auto& workloads = workload::parsec_profiles();
  const auto kinds = paper_columns();
  harness::Matrix m;
  m.workloads = workloads;
  m.kinds = kinds;
  m.cells.assign(workloads.size(),
                 std::vector<harness::RunMetrics>(kinds.size()));
  const std::size_t total = workloads.size() * kinds.size();
  tw::parallel_for(
      total,
      [&](std::size_t i) {
        const std::size_t w = i / kinds.size();
        const std::size_t s = i % kinds.size();
        m.cells[w][s] = harness::run_system(system_config(workloads[w], o),
                                            workloads[w], kinds[s]);
      },
      o.threads);
  return m;
}

/// Emit the --json baseline for a full-system matrix run, aggregating
/// simulator events and serviced writes across every cell.
inline void maybe_write_matrix_json(const harness::Matrix& m,
                                    const Options& o, const char* bench,
                                    double wall_ms) {
  if (o.json_path.empty()) return;
  u64 events = 0, writes = 0;
  for (const auto& row : m.cells) {
    for (const auto& cell : row) {
      events += cell.sim_events;
      writes += cell.writes;
    }
  }
  BenchBaseline b;
  b.bench = bench;
  b.config = std::string(o.quick ? "quick" : "full") +
             " ops=" + std::to_string(o.target_ops_per_core) +
             " seed=" + std::to_string(o.seed);
  b.wall_ms = wall_ms;
  const double secs = wall_ms / 1000.0;
  b.events_per_sec = secs > 0.0 ? static_cast<double>(events) / secs : 0.0;
  b.sim_writes_per_sec =
      secs > 0.0 ? static_cast<double>(writes) / secs : 0.0;
  write_bench_json(o.json_path, b);
}

/// When --trace was given, re-run one representative cell (first
/// workload, Tetris) with tracing live and write the Chrome trace (and
/// optionally the metrics CSV). Kept out of the timed matrix so tracing
/// never skews the benchmark numbers.
inline void maybe_trace_run(const Options& o) {
  if (o.trace_path.empty() && o.trace_metrics_path.empty()) return;
  const auto& workloads = workload::parsec_profiles();
  harness::SystemConfig cfg = system_config(workloads[0], o);
  cfg.trace.chrome_path = o.trace_path;
  cfg.trace.metrics_path = o.trace_metrics_path;
  cfg.trace.categories = o.trace_categories;
  const harness::RunMetrics m = harness::run_system(
      cfg, workloads[0], schemes::SchemeKind::kTetris);
  std::cout << "(traced run: " << m.trace_records << " records, "
            << m.trace_samples << " metric samples, " << m.trace_dropped
            << " dropped";
  if (!o.trace_path.empty()) std::cout << " -> " << o.trace_path;
  std::cout << ")\n";
}

/// Dump the raw matrix to the --csv path if given.
inline void maybe_write_csv(const harness::Matrix& m, const Options& o) {
  if (o.csv_path.empty()) return;
  std::ofstream out(o.csv_path);
  harness::write_csv(m, out);
  std::cout << "(raw results written to " << o.csv_path << ")\n";
}

/// Render a grouped bar chart of the normalized values to --svg if given.
inline void maybe_write_svg(const harness::Matrix& m,
                            const std::vector<std::vector<double>>& norm,
                            const char* title, const char* y_label,
                            const Options& o) {
  if (o.svg_path.empty()) return;
  BarChart chart(title, y_label);
  std::vector<std::string> names;
  for (const auto kind : m.kinds)
    names.emplace_back(schemes::scheme_name(kind));
  chart.set_series(std::move(names));
  for (std::size_t w = 0; w < m.workloads.size(); ++w) {
    chart.add_group(m.workloads[w].name, norm[w]);
  }
  chart.set_reference(1.0);
  std::ofstream out(o.svg_path);
  chart.render(out);
  std::cout << "(figure written to " << o.svg_path << ")\n";
}

/// Shared driver for Figures 11-14: run the matrix, print the normalized
/// table for `metric`, and compare scheme geomeans against the paper's
/// reported averages (columns fnw, 2stage, 3stage, tetris).
inline int system_figure(int argc, char** argv, const char* title,
                         const harness::MetricFn& metric,
                         const std::vector<double>& paper_averages,
                         const char* paper_citation) {
  const Options o = Options::parse(argc, argv);
  std::cout << title << "\n"
            << std::string(std::strlen(title), '=') << "\n";
  std::cout << "(normalized to the DCW baseline; " << paper_citation
            << ")\n\n";

  const WallTimer timer;
  const harness::Matrix m = run_paper_matrix(o);
  const double wall_ms = timer.elapsed_ms();
  AsciiTable t = harness::normalized_table(m, metric, 0);
  const auto norm = harness::normalized_values(m, metric, 0);
  std::vector<std::string> paper_row = {"paper avg", "1.000"};
  for (const double v : paper_averages) paper_row.push_back(fixed(v, 3));
  t.add_row(std::move(paper_row));
  t.print(std::cout);

  std::cout << "\nmeasured geomean vs paper average:\n";
  const auto& geo = norm.back();
  bool shape_ok = true;
  for (std::size_t s = 1; s < m.kinds.size(); ++s) {
    const double measured = geo[s];
    const double paper = paper_averages[s - 1];
    std::cout << "  " << pad(schemes::scheme_name(m.kinds[s]), 8) << " "
              << fixed(measured, 3) << " (paper " << fixed(paper, 3)
              << ")\n";
    // Shape check: the ranking between adjacent schemes must match.
    if (s > 1) {
      const double prev = geo[s - 1];
      const double paper_prev = paper_averages[s - 2];
      const bool measured_better = measured < prev;
      const bool paper_better = paper < paper_prev;
      if (paper != paper_prev && measured_better != paper_better) {
        shape_ok = false;
      }
    }
  }
  std::cout << (shape_ok ? "\nshape: OK — scheme ranking matches the paper\n"
                         : "\nshape: MISMATCH in scheme ranking\n");
  maybe_write_csv(m, o);
  maybe_write_svg(m, norm, title, "normalized to DCW baseline", o);
  maybe_write_matrix_json(m, o, title, wall_ms);
  maybe_trace_run(o);
  return shape_ok ? 0 : 1;
}

/// Same driver for higher-is-better metrics (Fig. 13 IPC).
inline int system_figure_higher(int argc, char** argv, const char* title,
                                const harness::MetricFn& metric,
                                const std::vector<double>& paper_averages,
                                const char* paper_citation) {
  const Options o = Options::parse(argc, argv);
  std::cout << title << "\n"
            << std::string(std::strlen(title), '=') << "\n";
  std::cout << "(improvement over the DCW baseline; " << paper_citation
            << ")\n\n";

  const WallTimer timer;
  const harness::Matrix m = run_paper_matrix(o);
  const double wall_ms = timer.elapsed_ms();
  AsciiTable t = harness::normalized_table(m, metric, 0);
  const auto norm = harness::normalized_values(m, metric, 0);
  std::vector<std::string> paper_row = {"paper avg", "1.000"};
  for (const double v : paper_averages) paper_row.push_back(fixed(v, 3));
  t.add_row(std::move(paper_row));
  t.print(std::cout);

  std::cout << "\nmeasured geomean vs paper average:\n";
  const auto& geo = norm.back();
  bool shape_ok = true;
  for (std::size_t s = 1; s < m.kinds.size(); ++s) {
    std::cout << "  " << pad(schemes::scheme_name(m.kinds[s]), 8) << " "
              << fixed(geo[s], 3) << "x (paper "
              << fixed(paper_averages[s - 1], 3) << "x)\n";
    if (s > 1 && (geo[s] > geo[s - 1]) !=
                     (paper_averages[s - 1] > paper_averages[s - 2])) {
      shape_ok = false;
    }
  }
  std::cout << (shape_ok ? "\nshape: OK — scheme ranking matches the paper\n"
                         : "\nshape: MISMATCH in scheme ranking\n");
  maybe_write_csv(m, o);
  maybe_write_svg(m, norm, title, "improvement over DCW baseline", o);
  maybe_write_matrix_json(m, o, title, wall_ms);
  maybe_trace_run(o);
  return shape_ok ? 0 : 1;
}

}  // namespace tw::bench

// Benchmark runner: times whole workloads through harness::run_system
// (end-to-end metrics) or through the probed pipeline (per-layer
// metrics), checks the simulated results, and prints one JSON result as
// its last line.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    [--root DIR] [--spans PATH]
//
// --trace 0: untraced passes over every cell for S seconds, each followed
//   by a slice of repeated set-up passes (median pass wall time, simulated
//   instructions per host second, median set-up time, all in
//   reference-host seconds), peak RSS, then one traced pass, with
//   multi-channel cells on two simulation threads, whose per-cell digests
//   must equal the untraced ones.
// --trace 1: alternating untraced and traced passes for S seconds;
//   per-layer metrics are medians over the traced passes. The spans of
//   the last traced pass go to --spans as CSV.
//
// Exit status: 0 when every cell passed its checks, 1 when any failed,
// 2 for a usage or set-up error (no result line then).

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "layers.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

/// Host time spent re-measuring set-up after each untraced pass of a
/// --trace 0 run.
constexpr double kSetupSliceS = 0.03;

/// Nominal time of reference_kernel_s(): host times are reported in
/// seconds of a host on which the kernel takes exactly this long.
constexpr double kReferenceS = 0.06;

/// Most host seconds of timed work between two reference samples.
constexpr double kWindowS = 0.25;

/// How much more than the reference kernel the simulator slows down when
/// the host is contended: window times scale as the kernel time to this
/// power. On 200 s runs of paper_matrix, manycore_xbar and tiered_palp on
/// a shared 4-vCPU VM, 1.5 made the medians of 20 s blocks steadiest on
/// all three (block IQR 2.2%, 1.5% and 3.8%, against 5.5%, 2.6% and 7.2%
/// at 1.0).
constexpr double kElasticity = 1.5;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

volatile u64 g_reference_sink = 0;

/// Host-speed reference: a fixed integer workload (random updates to a
/// 1 MiB table, then a sort) that never changes with the simulator.
/// Shared hosts drift in speed by tens of percent over minutes; timing
/// this kernel next to each measurement lets the benchmark rescale host
/// times to a fixed reference speed. Its buffers are static, so they add
/// the same constant to peak RSS in every run. Returns its wall time in
/// seconds.
double reference_kernel_s() {
  constexpr std::size_t kSlots = std::size_t{1} << 17;
  static std::array<u64, kSlots> table;
  static std::array<u32, 300'000> keys;
  const auto t0 = Clock::now();
  table.fill(0);
  u64 x = 0x9E3779B97F4A7C15ull;
  u64 acc = 0;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < 6'000'000; ++i) {
    const u64 r = next();
    const std::size_t k = r & (kSlots - 1);
    table[k] += r;
    if ((table[k] & 1) != 0) acc += table[(k * 7) & (kSlots - 1)];
  }
  for (u32& k : keys) k = static_cast<u32>(next());
  std::sort(keys.begin(), keys.end());
  g_reference_sink = acc + keys[keys.size() / 2];
  return since(t0);
}

/// Rescales host times to reference-host seconds. Timed work is added in
/// pieces (one cell, one set-up slice); the reference kernel runs whenever
/// the open window holds kWindowS of work and whenever a caller takes the
/// total. Each window's work is multiplied by (kReferenceS / the mean of
/// the two kernel times that bracket it) ^ kElasticity, so a host that
/// slows down for a few seconds slows the kernel next to the work it
/// slowed. The factor never depends on the simulator: a simulator that
/// gets 10% slower reads 10% slower.
class RefClock {
 public:
  RefClock() : last_(reference_kernel_s()) { samples_.push_back(last_); }

  void add(double wall_s) {
    open_s_ += wall_s;
    if (open_s_ >= kWindowS) close();
  }

  /// Rescaled time of everything added since the last take().
  double take() {
    close();
    const double out = scaled_s_;
    scaled_s_ = 0.0;
    return out;
  }

  const std::vector<double>& samples() const { return samples_; }

 private:
  void close() {
    if (open_s_ <= 0.0) return;
    const double r = reference_kernel_s();
    scaled_s_ +=
        open_s_ * std::pow(2.0 * kReferenceS / (last_ + r), kElasticity);
    last_ = r;
    open_s_ = 0.0;
    samples_.push_back(r);
  }

  double last_;
  double open_s_ = 0.0;
  double scaled_s_ = 0.0;
  std::vector<double> samples_;
};

struct Args {
  std::string workload;
  u64 seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string root = ".";
  std::string spans;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_runner: " << why
            << "\nusage: perfbench_runner --workload NAME --seed N "
               "--seconds S --trace 0|1 [--root DIR] [--spans PATH]\n"
               "workloads:";
  for (const auto& n : workload_names()) std::cerr << ' ' << n;
  std::cerr << '\n';
  std::exit(2);
}

u64 parse_u64(const std::string& flag, const std::string& v) {
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0' || v[0] == '-') {
    usage(flag + " needs a whole number, got '" + v + "'");
  }
  return x;
}

Args parse_args(int argc, char** argv) {
  Args a;
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const auto eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage("missing value for " + flag);
    }
    if (!seen.insert(flag).second) usage("repeated flag " + flag);
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_u64(flag, value));
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.trace = value == "1" ? 1 : 0;
    } else if (flag == "--root") {
      a.root = value;
    } else if (flag == "--spans") {
      a.spans = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || !seen.count("--seed") || a.trace < 0 ||
      a.seconds < 1.0) {
    usage("--workload, --seed, --seconds (>= 1) and --trace are required");
  }
  return a;
}

/// Tracks which cells failed which check.
class Failures {
 public:
  explicit Failures(const Workload& w) : w_(w) {}

  void cell(std::size_t i, const std::string& why) {
    if (failed_.insert(i).second) {
      std::printf("FAIL %s: %s\n", w_.cells[i].label.c_str(), why.c_str());
    }
  }
  void all(const std::string& why) {
    std::printf("FAIL %s: %s\n", w_.name.c_str(), why.c_str());
    for (std::size_t i = 0; i < w_.cells.size(); ++i) failed_.insert(i);
  }
  std::size_t count() const { return failed_.size(); }

 private:
  const Workload& w_;
  std::set<std::size_t> failed_;
};

/// One pass over every cell through run_system (no probes).
struct Pass {
  double wall_s = 0.0;    ///< sum of the cell walls
  double scaled_s = 0.0;  ///< the same in reference-host seconds
  std::vector<double> cell_wall_s;
  std::vector<tw::harness::RunMetrics> results;
};

/// `clock`, when given, rescales the pass; its reference samples fall
/// between cells, never inside one.
Pass untraced_pass(const Workload& w, RefClock* clock = nullptr) {
  Pass p;
  p.results.reserve(w.cells.size());
  for (const Cell& c : w.cells) {
    const auto cell0 = Clock::now();
    p.results.push_back(tw::harness::run_system(c.cfg, c.profile, c.kind));
    const double wall = since(cell0);
    p.cell_wall_s.push_back(wall);
    p.wall_s += wall;
    if (clock != nullptr) clock->add(wall);
  }
  if (clock != nullptr) p.scaled_s = clock->take();
  return p;
}

/// One pass over every cell through the probed pipeline.
struct TracedPass {
  double wall_s = 0.0;      ///< whole pass, set-up and teardown included
  double run_wall_s = 0.0;  ///< from start() to the end of each run
  std::vector<tw::harness::RunMetrics> results;
  std::vector<CellProbes> probes;
};

TracedPass traced_pass(const Workload& w, SpanLog& log) {
  TracedPass p;
  log.clear();
  const auto t0 = Clock::now();
  for (const Cell& c : w.cells) {
    Pipeline pipe(c, &log);
    const auto r0 = Clock::now();
    pipe.start();
    p.results.push_back(pipe.finish());
    p.run_wall_s += since(r0);
    p.probes.push_back(pipe.probes());
  }
  p.wall_s = since(t0);
  return p;
}

/// `w` with every multi-channel cell on two simulation threads. The sharded
/// engine gives bit-identical results at every thread count, so the
/// untimed traced check pass runs this copy: it covers the engine's
/// threaded phase while every timed pass stays on one thread, whose speed
/// does not depend on a second core being free.
Workload threaded(Workload w) {
  for (Cell& c : w.cells) {
    if (c.cfg.pcm.geometry.channels > 1) c.cfg.sim_threads = 2;
  }
  return w;
}

/// Set-up time of one pass: building every cell's simulator objects and
/// scheduling the first events, summed over cells.
double setup_pass(const Workload& w) {
  double total = 0.0;
  for (const Cell& c : w.cells) {
    const auto t0 = Clock::now();
    Pipeline pipe(c, nullptr);
    pipe.start();
    total += since(t0);
  }
  return total;
}

void check_results(const Workload& w,
                   const std::vector<tw::harness::RunMetrics>& results,
                   const std::vector<u64>& reference, const char* what,
                   Failures& fail) {
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    if (!results[i].completed) fail.cell(i, "did not complete");
    if (digest(results[i]) != reference[i]) {
      fail.cell(i, std::string(what) + " digest differs from the first pass");
    }
  }
}

std::vector<u64> digests(const std::vector<tw::harness::RunMetrics>& r) {
  std::vector<u64> d;
  for (const auto& m : r) d.push_back(digest(m));
  return d;
}

/// Workload digest: every cell's digest, folded in cell order.
u64 fold(const std::vector<u64>& d) {
  u64 h = 0xCBF29CE484222325ull;
  for (const u64 x : d) h = (h ^ x) * 0x100000001B3ull;
  return h;
}

/// Peak resident set of this process image in MiB (VmHWM). getrusage's
/// ru_maxrss is not used: Linux carries it across exec, so it would report
/// the launching process's peak when that was larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void print_json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  std::printf("%.17g", v);
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ",
                metrics[i].name.c_str());
    print_json_number(metrics[i].value);
    std::printf(", \"unit\": \"%s\"}", metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void print_metrics(const Metrics& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

int run(const Args& a) {
  const Workload w = make_workload(a.workload, a.seed, a.root);
  std::printf(
      "perfbench: workload %s, seed %llu, %zu cells, %.0f s, trace %d\n",
      w.name.c_str(), static_cast<unsigned long long>(a.seed), w.cells.size(),
      a.seconds, a.trace);
  std::fflush(stdout);
  Failures fail(w);
  Metrics out;
  std::vector<tw::harness::RunMetrics> reference;  ///< first untraced pass

  if (a.trace == 0) {
    // Untraced passes for the run time (at least three), each followed by
    // a slice of repeated set-up passes. Every timed piece is rescaled by
    // the reference samples around it (RefClock). Peak RSS is read right
    // after the loop, before anything else allocates.
    const auto t0 = Clock::now();
    RefClock clock;
    std::vector<double> walls, scaled, setups, setups_raw;
    std::vector<std::vector<double>> cell_walls(w.cells.size());
    std::vector<u64> ref;
    for (;;) {
      const Pass p = untraced_pass(w, &clock);
      if (ref.empty()) {
        reference = p.results;
        ref = digests(reference);
      }
      check_results(w, p.results, ref, "untraced", fail);
      walls.push_back(p.wall_s);
      scaled.push_back(p.scaled_s);
      for (std::size_t i = 0; i < w.cells.size(); ++i) {
        cell_walls[i].push_back(p.cell_wall_s[i]);
      }

      // Set-up: the per-pass sums over cells, all rescaled by the factor
      // of the window the slice forms on its own.
      const std::size_t first = setups_raw.size();
      const auto s0 = Clock::now();
      while (setups_raw.size() - first < 3 || since(s0) < kSetupSliceS) {
        setups_raw.push_back(setup_pass(w));
      }
      double slice_s = 0.0;
      for (std::size_t i = first; i < setups_raw.size(); ++i) {
        slice_s += setups_raw[i];
      }
      clock.add(slice_s);
      const double factor = clock.take() / slice_s;
      for (std::size_t i = first; i < setups_raw.size(); ++i) {
        setups.push_back(setups_raw[i] * factor);
      }
      if (walls.size() >= 3 && since(t0) >= a.seconds) break;
    }
    const double rss = peak_rss_mb();

    // One traced pass: neither the probes nor the threaded engine may
    // change any simulated result.
    SpanLog log;
    const TracedPass t = traced_pass(threaded(w), log);
    check_results(w, t.results, ref, "traced", fail);

    u64 retired = 0;
    for (const auto& r : reference) retired += r.retired;
    out = end_to_end_metrics(median(scaled), retired, rss, median(setups));
    std::printf("raw host times: wall %.6f s, set-up %.6f s; reference "
                "kernel: %zu samples, median %.6f s (nominal %.3f s)\n",
                median(walls), median(setups_raw), clock.samples().size(),
                median(clock.samples()), kReferenceS);
    std::printf("untraced passes: %zu, set-up passes: %zu, workload digest "
                "%016llx\npass walls (s):",
                walls.size(), setups_raw.size(),
                static_cast<unsigned long long>(fold(ref)));
    for (const double x : walls) std::printf(" %.4f", x);
    std::printf("\nrescaled (s):");
    for (const double x : scaled) std::printf(" %.4f", x);
    std::printf("\nmedian cell walls (s):\n");
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
      std::printf("  %-28s %.4f\n", w.cells[i].label.c_str(),
                  median(cell_walls[i]));
    }
  } else {
    SpanLog log;
    std::vector<double> untraced, traced;
    std::vector<Metrics> layers;
    std::vector<u64> ref;
    std::vector<Span> last_spans;
    const auto t0 = Clock::now();
    while (traced.size() < 2 || since(t0) < a.seconds) {
      const Pass p = untraced_pass(w);
      if (ref.empty()) {
        reference = p.results;
        ref = digests(reference);
      }
      check_results(w, p.results, ref, "untraced", fail);
      const TracedPass t = traced_pass(w, log);
      check_results(w, t.results, ref, "traced", fail);
      untraced.push_back(p.wall_s);
      traced.push_back(t.wall_s);
      last_spans = log.collect();
      layers.push_back(
          layer_metrics(last_spans, t.probes, t.results, t.run_wall_s));
    }
    out = median_metrics(layers);
    out.push_back({"trace.overhead_pct",
                   100.0 * (median(traced) / median(untraced) - 1.0), "%"});
    std::printf("passes: %zu untraced + %zu traced, workload digest %016llx\n",
                untraced.size(), traced.size(),
                static_cast<unsigned long long>(fold(ref)));
    if (!a.spans.empty()) {
      std::ofstream f(a.spans);
      write_spans_csv(f, last_spans);
      std::printf("spans of the last traced pass: %zu -> %s\n",
                  last_spans.size(), a.spans.c_str());
    }
  }

  if (w.paper_matrix) {
    const PaperCheck pc = check_paper(w, reference);
    for (const auto& line : pc.lines) std::printf("  %s\n", line.c_str());
    std::printf("  %-28s %16.6f %%\n", "paper_err_pct", pc.err_pct);
    if (!pc.ranking_ok) fail.all("scheme ranking differs from the paper");
  }
  const std::string cov = check_coverage(w, reference);
  if (!cov.empty()) fail.all(cov);
  const std::size_t failed = fail.count();
  std::printf("  %-28s %16zu count\n  %-28s %16zu count\n", "cells",
              w.cells.size(), "cells_failed", failed);
  print_metrics(out);
  print_result(failed == 0, w.cells.size(), failed, out);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: " << e.what() << '\n';
    return 2;
  }
}

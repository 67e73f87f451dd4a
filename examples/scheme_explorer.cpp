// scheme_explorer: interactive parameter-space exploration of the write
// schemes. Sweeps one device parameter and prints how each scheme's
// average write-unit count responds — the tool for finding crossovers.
//
//   $ ./scheme_explorer [--param=budget|k|l|line|density] [--workload=NAME]
//
// Examples:
//   ./scheme_explorer --param=budget          # power budget sweep
//   ./scheme_explorer --param=density         # bit-change density sweep
//   ./scheme_explorer --param=line --workload=vips

#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "tw/common/rng.hpp"
#include "tw/common/strings.hpp"
#include "tw/common/table.hpp"
#include "tw/core/factory.hpp"
#include "tw/workload/generator.hpp"

using namespace tw;

namespace {

constexpr const char* kUsage =
    "usage: scheme_explorer [--param=budget|k|l|line|density] "
    "[--workload=NAME]\n";

struct SweepPoint {
  std::string label;
  pcm::PcmConfig cfg;
  double density_scale = 1.0;  ///< multiplier on the profile's bit rates
};

double avg_write_units(const SweepPoint& pt,
                       const workload::WorkloadProfile& base_profile,
                       schemes::SchemeKind kind, u64 writes) {
  workload::WorkloadProfile profile = base_profile;
  profile.mean_sets *= pt.density_scale;
  profile.mean_resets *= pt.density_scale;

  mem::DataStore store(pt.cfg.geometry.units_per_line(), 7,
                       profile.initial_ones_fraction);
  workload::TraceGenerator gen(profile, pt.cfg.geometry, 1, 11);
  const auto scheme = core::make_scheme(kind, pt.cfg);
  double sum = 0;
  u64 n = 0;
  while (n < writes) {
    const workload::TraceOp op = gen.next(0);
    if (!op.is_write) continue;
    const pcm::LogicalLine next = gen.make_write_data(op.addr, store, 0);
    sum += scheme->plan_write(store.line(op.addr), next).write_units;
    ++n;
  }
  return sum / static_cast<double>(n);
}

}  // namespace

int main(int argc, char** argv) {
  std::string param = "budget";
  std::string workload_name = "ferret";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (starts_with(arg, "--param=")) {
      param = arg.substr(8);
    } else if (starts_with(arg, "--workload=")) {
      workload_name = arg.substr(11);
    } else if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    } else {
      std::cerr << "unknown flag '" << arg << "'\n" << kUsage;
      return 2;
    }
  }
  const workload::WorkloadProfile* found = workload::find_profile(workload_name);
  if (found == nullptr) {
    std::cerr << "unknown workload '" << workload_name << "'; valid:";
    for (const auto& p : workload::parsec_profiles()) std::cerr << ' ' << p.name;
    std::cerr << "\n";
    return 2;
  }
  const workload::WorkloadProfile& profile = *found;

  std::vector<SweepPoint> points;
  if (param == "budget") {
    for (const u32 b : {4u, 8u, 16u, 32u, 64u, 128u}) {
      SweepPoint pt;
      pt.cfg.power.chip_budget = b;
      pt.label = "chip budget " + std::to_string(b);
      points.push_back(pt);
    }
  } else if (param == "k") {
    // Vary the time asymmetry by stretching Tset.
    for (const u32 k : {1u, 2u, 4u, 8u, 16u}) {
      SweepPoint pt;
      pt.cfg.timing.t_set = ns(53) * k;
      pt.label = "K=" + std::to_string(k) + " (Tset " +
                 fixed(to_ns(pt.cfg.timing.t_set), 0) + "ns)";
      points.push_back(pt);
    }
  } else if (param == "l") {
    for (const u32 l : {1u, 2u, 3u, 4u}) {
      SweepPoint pt;
      pt.cfg.power.reset_current_ratio_l = l;
      pt.label = "L=" + std::to_string(l);
      points.push_back(pt);
    }
  } else if (param == "line") {
    for (const u32 bytes : {64u, 128u, 256u}) {
      SweepPoint pt;
      pt.cfg.geometry.cache_line_bytes = bytes;
      pt.label = std::to_string(bytes) + "B line";
      points.push_back(pt);
    }
  } else if (param == "density") {
    for (const double d : {0.25, 0.5, 1.0, 2.0, 3.0}) {
      SweepPoint pt;
      pt.density_scale = d;
      pt.label = "density x" + fixed(d, 2);
      points.push_back(pt);
    }
  } else {
    std::cerr << "unknown --param (use budget|k|l|line|density)\n";
    return 2;
  }

  const std::vector<schemes::SchemeKind> kinds = {
      schemes::SchemeKind::kDcw,        schemes::SchemeKind::kFlipNWrite,
      schemes::SchemeKind::kTwoStage,   schemes::SchemeKind::kThreeStage,
      schemes::SchemeKind::kTetris};

  std::cout << "Write-unit sweep over '" << param << "' (workload "
            << workload_name << ")\n\n";
  AsciiTable t;
  {
    std::vector<std::string> header = {"point"};
    for (const auto k : kinds) header.emplace_back(schemes::scheme_name(k));
    header.emplace_back("tetris win vs 3stage");
    t.set_header(std::move(header));
  }
  for (const auto& pt : points) {
    std::vector<std::string> row = {pt.label};
    double three = 0, tetris = 0;
    for (const auto kind : kinds) {
      const double u = avg_write_units(pt, profile, kind, 1500);
      if (kind == schemes::SchemeKind::kThreeStage) three = u;
      if (kind == schemes::SchemeKind::kTetris) tetris = u;
      row.push_back(fixed(u, 2));
    }
    row.push_back(three > 0 ? pct(1.0 - tetris / three) : "-");
    t.add_row(std::move(row));
  }
  t.print(std::cout);
  std::cout << "\nReading the sweep: Tetris's edge grows with spare power "
               "budget and\nshrinks as bit-change density approaches the "
               "worst case the other\nschemes already assume.\n";
  return 0;
}

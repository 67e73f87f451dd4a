// full_system_sim: the complete pipeline — 4 out-of-order-style cores,
// optional 3-level cache hierarchy, FRFCFS memory controller, PCM banks —
// with a detailed end-of-run report (latencies, IPC, bank utilization,
// energy, wear, queue behaviour).
//
//   $ ./full_system_sim [--workload=NAME] [--scheme=NAME] [--cache]
//                       [--instr=N] [--cores=N] [--seed=N]
//                       [--config=FILE] [--dump-config]
//
// With --cache the workload profile is interpreted as CPU-level access
// rates and filtered through per-core L1/L2/L3 stacks (Table II); without
// it the profile's RPKI/WPKI are memory-level (Table III semantics).
// --config loads an experiment configuration file (see
// tw/harness/config_file.hpp); --dump-config prints the effective
// configuration in that format and exits. --instr, --cores and --seed set
// the config keys sys.instructions, sys.cores and sys.seed, so a value
// the key rejects exits 2 with the key's message, as does an unknown flag.

#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>

#include "tw/common/strings.hpp"
#include "tw/common/table.hpp"
#include "tw/core/factory.hpp"
#include "tw/cpu/multicore.hpp"
#include "tw/harness/config_file.hpp"
#include "tw/workload/cache_filtered.hpp"

using namespace tw;

namespace {

constexpr const char* kUsage =
    "usage: full_system_sim [--workload=NAME] [--scheme=NAME] [--cache]\n"
    "                       [--instr=N] [--cores=N] [--seed=N]\n"
    "                       [--config=FILE] [--dump-config]\n";

/// Flags that set one config-file key each.
struct KeyFlag {
  std::string_view flag;
  std::string_view key;
};
constexpr KeyFlag kKeyFlags[] = {{"--instr=", "sys.instructions"},
                                 {"--cores=", "sys.cores"},
                                 {"--seed=", "sys.seed"}};

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name = "ferret";
  std::string scheme_name = "tetris";
  bool use_cache = false;
  bool dump_config = false;
  harness::SystemConfig sys;
  sys.instructions_per_core = 300'000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (starts_with(arg, "--config=")) {
      try {
        sys = harness::load_system_config(arg.substr(9));
      } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
      }
    }
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (starts_with(arg, "--config=")) continue;  // applied above
    if (starts_with(arg, "--workload=")) {
      workload_name = arg.substr(11);
    } else if (starts_with(arg, "--scheme=")) {
      scheme_name = arg.substr(9);
    } else if (arg == "--cache") {
      use_cache = true;
    } else if (arg == "--dump-config") {
      dump_config = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    } else {
      const auto* kf = std::find_if(
          std::begin(kKeyFlags), std::end(kKeyFlags),
          [&](const KeyFlag& f) { return starts_with(arg, f.flag); });
      if (kf == std::end(kKeyFlags)) {
        std::cerr << "unknown flag '" << arg << "'\n" << kUsage;
        return 2;
      }
      try {
        harness::set_config_key(sys, kf->key, arg.substr(kf->flag.size()));
      } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
      }
    }
  }
  if (dump_config) {
    harness::write_system_config(sys, std::cout);
    return 0;
  }

  const pcm::PcmConfig pcfg = sys.pcm;
  const u64 instr = sys.instructions_per_core;
  const u32 cores = sys.cores;
  const u64 seed = sys.seed;
  const workload::WorkloadProfile* found = workload::find_profile(workload_name);
  if (found == nullptr) {
    std::cerr << "unknown workload '" << workload_name << "'; valid:";
    for (const auto& p : workload::parsec_profiles()) std::cerr << ' ' << p.name;
    std::cerr << "\n";
    return 2;
  }
  const workload::WorkloadProfile& profile = *found;
  const auto kind = core::scheme_kind_from_name(scheme_name);
  if (!kind) {
    std::cerr << "unknown scheme '" << scheme_name << "'; valid:";
    for (const auto k : core::all_scheme_kinds()) {
      std::cerr << ' ' << schemes::scheme_name(k);
    }
    std::cerr << "\n";
    return 2;
  }

  sim::Simulator sim;
  stats::Registry reg;
  const auto scheme = core::make_scheme(*kind, pcfg, sys.tetris);
  mem::Controller ctl(sim, pcfg, sys.controller, *scheme, reg, seed,
                      profile.initial_ones_fraction);

  std::unique_ptr<workload::RequestSource> source;
  workload::CacheFilteredSource* cached_source = nullptr;
  if (use_cache) {
    // CPU-level profile: scale the memory-level rates up; the caches will
    // filter most accesses back out.
    workload::WorkloadProfile cpu_profile = profile;
    cpu_profile.rpki = std::max(40.0, profile.rpki * 40.0);
    cpu_profile.wpki = std::max(15.0, profile.wpki * 40.0);
    cpu_profile.working_set_lines = 512 * 1024;  // 32 MB: stress L3
    auto src = std::make_unique<workload::CacheFilteredSource>(
        cpu_profile, pcfg.geometry, cache::HierarchyConfig{}, cores, seed);
    cached_source = src.get();
    source = std::move(src);
  } else {
    source = std::make_unique<workload::TraceGenerator>(
        profile, pcfg.geometry, cores, seed);
  }

  cpu::MultiCore cpus(sim, sys.core, cores, ctl, *source, instr);
  cpus.start();
  sim.run(ms(30'000));

  std::cout << "full_system_sim: " << workload_name << " under "
            << scheme->name() << (use_cache ? " (cache-filtered)" : "")
            << "\n" << pcfg.describe() << "\n\n";

  if (!cpus.all_finished()) {
    std::cout << "WARNING: simulation hit the time cap before all cores "
                 "retired their budget\n\n";
  }

  AsciiTable t;
  t.set_header({"metric", "value"});
  t.add_row({"instructions retired", std::to_string(cpus.total_retired())});
  t.add_row({"runtime", fixed(to_us(cpus.runtime()), 1) + " us"});
  t.add_row({"aggregate IPC", fixed(cpus.aggregate_ipc(), 3)});
  t.add_row({"memory reads", std::to_string(reg.counter("mem.reads").value())});
  t.add_row({"memory writes",
             std::to_string(reg.counter("mem.writes").value())});
  t.add_row({"avg read latency",
             fixed(reg.accumulator("mem.read_latency_ns").mean(), 0) + " ns"});
  t.add_row({"avg write latency",
             fixed(reg.accumulator("mem.write_latency_ns").mean(), 0) + " ns"});
  t.add_row({"p99 read latency",
             fixed(reg.histogram("mem.read_latency_hist_ns").percentile(0.99),
                   0) + " ns"});
  t.add_row({"avg write units/line",
             fixed(reg.accumulator("mem.write_units").mean(), 2)});
  t.add_row({"reads forwarded",
             std::to_string(reg.counter("mem.reads_forwarded").value())});
  t.add_row({"writes coalesced",
             std::to_string(reg.counter("mem.writes_coalesced").value())});
  t.add_row({"silent writes",
             std::to_string(reg.counter("mem.writes_silent").value())});
  t.add_row({"units flipped",
             std::to_string(reg.counter("mem.units_flipped").value())});
  t.add_row({"write energy",
             fixed(ctl.energy().write_energy_pj() / 1e6, 3) + " uJ"});
  t.add_row({"read energy",
             fixed(ctl.energy().read_energy_pj() / 1e6, 3) + " uJ"});
  const pcm::WearSummary wear = ctl.wear().summary();
  t.add_row({"lines written", std::to_string(wear.lines_touched)});
  t.add_row({"bits programmed/write", fixed(wear.avg_bits_per_write, 1)});
  t.print(std::cout);

  std::cout << "\nper-bank utilization:\n";
  const Tick rt = std::max<Tick>(cpus.runtime(), 1);
  for (std::size_t b = 0; b < ctl.banks().size(); ++b) {
    const double util =
        static_cast<double>(ctl.banks()[b].busy_total()) /
        static_cast<double>(rt);
    std::cout << "  bank " << b << " [" << ascii_bar(util, 30) << "] "
              << pct(util) << " (" << ctl.banks()[b].commands()
              << " cmds)\n";
  }

  if (cached_source != nullptr) {
    std::cout << "\ncache behaviour (core 0):\n";
    const auto& h = cached_source->hierarchy(0);
    std::cout << "  L1D hit rate " << pct(h.l1d().hit_rate()) << ", L2 "
              << pct(h.l2().hit_rate()) << ", L3 "
              << pct(h.l3().hit_rate()) << "\n";
    std::cout << "  effective memory traffic: "
              << fixed(cached_source->effective_mem_per_kilo(0), 2)
              << " requests/kilo-instruction\n";
  }

  std::cout << "\nraw stat registry:\n";
  reg.report(std::cout, "  ");
  return 0;
}

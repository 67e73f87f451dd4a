// trace_tool: generate, inspect and convert workload traces.
//
//   $ ./trace_tool gen <workload> <ops_per_core> <out.trace> [cores] [seed]
//   $ ./trace_tool info <in.trace>
//
// The binary trace format is documented in tw/workload/trace_io.hpp.
// A trace file holds a generator's request stream for offline inspection,
// e.g. to diff request streams across configuration changes.

#include <iostream>
#include <map>
#include <string>

#include "tw/common/strings.hpp"
#include "tw/common/table.hpp"
#include "tw/stats/accumulator.hpp"
#include "tw/workload/trace_io.hpp"

using namespace tw;

namespace {

int cmd_gen(int argc, char** argv) {
  if (argc < 5) {
    std::cerr << "usage: trace_tool gen <workload> <ops_per_core> "
                 "<out.trace> [cores] [seed]\n";
    return 2;
  }
  const auto& profile = workload::profile_by_name(argv[2]);
  const u64 ops = std::strtoull(argv[3], nullptr, 10);
  const std::string path = argv[4];
  const u32 cores =
      argc > 5 ? static_cast<u32>(std::strtoul(argv[5], nullptr, 10)) : 4;
  const u64 seed = argc > 6 ? std::strtoull(argv[6], nullptr, 10) : 42;

  workload::TraceGenerator gen(profile, pcm::GeometryParams{}, cores, seed);
  const auto records = workload::capture(gen, cores, ops);
  workload::save_trace(path, records, cores);
  std::cout << "wrote " << records.size() << " records (" << cores
            << " cores x " << ops << " ops) to " << path << "\n";
  return 0;
}

int cmd_info(int argc, char** argv) {
  if (argc < 3) {
    std::cerr << "usage: trace_tool info <in.trace>\n";
    return 2;
  }
  u32 cores = 0;
  const auto records = workload::load_trace(argv[2], &cores);

  stats::Accumulator gaps;
  u64 writes = 0;
  std::map<u32, u64> per_core;
  std::map<Addr, u64> line_heat;
  for (const auto& r : records) {
    gaps.add(static_cast<double>(r.gap));
    writes += r.is_write ? 1 : 0;
    ++per_core[r.core];
    ++line_heat[r.addr];
  }
  u64 hottest = 0;
  for (const auto& [_, n] : line_heat) hottest = std::max(hottest, n);

  AsciiTable t;
  t.set_header({"property", "value"});
  t.add_row({"records", std::to_string(records.size())});
  t.add_row({"cores", std::to_string(cores)});
  t.add_row({"writes", std::to_string(writes) + " (" +
                           pct(static_cast<double>(writes) /
                               static_cast<double>(records.size())) +
                           ")"});
  t.add_row({"mean gap", fixed(gaps.mean(), 1) + " instructions"});
  t.add_row({"implied mem ops/kilo", fixed(1000.0 / gaps.mean(), 2)});
  t.add_row({"distinct lines", std::to_string(line_heat.size())});
  t.add_row({"hottest line touches", std::to_string(hottest)});
  t.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: trace_tool gen|info ...\n";
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "gen") return cmd_gen(argc, argv);
    if (cmd == "info") return cmd_info(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "unknown command: " << cmd << "\n";
  return 2;
}

#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "tw/fault/fault.hpp"
#include "tw/harness/config_file.hpp"
#include "tw/harness/figure.hpp"
#include "tw/workload/profiles.hpp"

namespace perfbench {

namespace {

using tw::schemes::SchemeKind;

/// Instruction budget giving about `ops` memory requests per core (the
/// figure binaries' sizing rule).
u64 instructions_for(const tw::workload::WorkloadProfile& p, u64 ops) {
  const double per_kilo = p.mem_ops_per_kilo();
  const u64 wanted =
      static_cast<u64>(static_cast<double>(ops) * 1000.0 / per_kilo);
  return std::clamp<u64>(wanted, 20'000, 60'000'000);
}

Cell make_cell(tw::harness::SystemConfig cfg,
               const tw::workload::WorkloadProfile& profile, SchemeKind kind,
               u64 ops, u64 seed, const std::string& tag = "") {
  Cell c;
  cfg.seed = seed;
  cfg.instructions_per_core = instructions_for(profile, ops);
  c.cfg = cfg;
  c.profile = profile;
  c.kind = kind;
  c.label = profile.name + "/" + std::string(tw::schemes::scheme_name(kind)) +
            tag;
  return c;
}

constexpr SchemeKind kPaperColumns[] = {
    SchemeKind::kDcw, SchemeKind::kFlipNWrite, SchemeKind::kTwoStage,
    SchemeKind::kThreeStage, SchemeKind::kTetris};
constexpr std::size_t kPaperSchemes = std::size(kPaperColumns);

// Memory requests per core of each workload's cells. Sized so one pass
// over a workload takes well under a second of host time on a 4-core box.
constexpr u64 kPaperOps = 1500;
constexpr u64 kManycoreOps = 150;
constexpr u64 kServerOps = 1000;
constexpr u64 kTieredOps = 60000;

Workload paper_matrix(u64 seed) {
  Workload w;
  w.name = "paper_matrix";
  w.paper_matrix = true;
  const tw::harness::SystemConfig cfg;  // Table II defaults, 4 cores
  for (const auto& p : tw::workload::parsec_profiles()) {
    for (const SchemeKind k : kPaperColumns) {
      w.cells.push_back(make_cell(cfg, p, k, kPaperOps, seed));
    }
  }
  return w;
}

Workload manycore_xbar(u64 seed) {
  Workload w;
  w.name = "manycore_xbar";
  const auto& vips = tw::workload::profile_by_name("vips");
  for (const u32 channels : {1u, 8u}) {
    tw::harness::SystemConfig cfg;
    cfg.cores = 48;
    cfg.pcm.geometry.channels = channels;
    // Timed passes run the sharded engine's channel loop on one thread
    // (0 would mean every core); the traced check pass runs it on two.
    cfg.sim_threads = 1;
    w.cells.push_back(make_cell(cfg, vips, SchemeKind::kTetris, kManycoreOps,
                                seed, " ch=" + std::to_string(channels)));
  }
  return w;
}

Workload server_256b(u64 seed, const std::string& root) {
  Workload w;
  w.name = "server_256b";
  const tw::harness::SystemConfig cfg =
      tw::harness::load_system_config(root + "/configs/server_256b.cfg");
  for (const char* name : {"ferret", "vips", "canneal"}) {
    w.cells.push_back(make_cell(cfg, tw::workload::profile_by_name(name),
                                SchemeKind::kTetris, kServerOps, seed));
  }
  return w;
}

Workload tiered_palp(u64 seed) {
  Workload w;
  w.name = "tiered_palp";
  tw::harness::SystemConfig cfg;
  cfg.dram.enabled = true;
  cfg.dram.capacity_bytes = 128 * 1024;
  cfg.dram.policy = tw::mem::DramPolicy::kMac;
  cfg.pcm.geometry.subarrays_per_bank = 4;
  cfg.controller.palp.enabled = true;
  cfg.encode.kind = tw::encode::EncoderKind::kCoset;
  cfg.fault = tw::fault::profile_config(tw::fault::FaultProfile::kLight);
  cfg.batch.max_lines = 4;
  for (const char* name : {"vips", "canneal"}) {
    tw::workload::WorkloadProfile p = tw::workload::profile_by_name(name);
    p.content = tw::workload::ContentClass::kCompressible;
    w.cells.push_back(make_cell(cfg, p, SchemeKind::kTetris, kTieredOps, seed));
  }
  return w;
}

struct PaperFigure {
  const char* name;
  double (*metric)(const tw::harness::RunMetrics&);
  double paper[4];  ///< fnw, 2stage, 3stage, tetris averages vs DCW
};

const PaperFigure kFigures[] = {
    {"fig11 read latency",
     [](const tw::harness::RunMetrics& m) { return m.read_latency_ns; },
     {0.61, 0.50, 0.44, 0.35}},
    {"fig12 write latency",
     [](const tw::harness::RunMetrics& m) { return m.write_latency_ns; },
     {0.75, 0.67, 0.65, 0.60}},
    {"fig13 ipc",
     [](const tw::harness::RunMetrics& m) { return m.ipc; },
     {1.4, 1.6, 1.8, 2.0}},
    {"fig14 running time",
     [](const tw::harness::RunMetrics& m) { return m.runtime_ns; },
     {0.76, 0.66, 0.61, 0.54}},
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "paper_matrix", "manycore_xbar", "server_256b", "tiered_palp"};
  return kNames;
}

Workload make_workload(const std::string& name, u64 seed,
                       const std::string& root) {
  if (name == "paper_matrix") return paper_matrix(seed);
  if (name == "manycore_xbar") return manycore_xbar(seed);
  if (name == "server_256b") return server_256b(seed, root);
  if (name == "tiered_palp") return tiered_palp(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

PaperCheck check_paper(const Workload& w,
                       const std::vector<tw::harness::RunMetrics>& results) {
  tw::harness::Matrix m;
  m.kinds.assign(std::begin(kPaperColumns), std::end(kPaperColumns));
  for (std::size_t i = 0; i < w.cells.size(); i += kPaperSchemes) {
    m.workloads.push_back(w.cells[i].profile);
    m.cells.emplace_back(results.begin() + static_cast<std::ptrdiff_t>(i),
                         results.begin() +
                             static_cast<std::ptrdiff_t>(i + kPaperSchemes));
  }
  PaperCheck out;
  double err_sum = 0.0;
  int err_n = 0;
  for (const PaperFigure& f : kFigures) {
    const auto geo = tw::harness::normalized_values(m, f.metric, 0).back();
    bool ok = true;
    char buf[160];
    std::string line = std::string(f.name) + ":";
    for (std::size_t s = 1; s < kPaperSchemes; ++s) {
      const double paper = f.paper[s - 1];
      err_sum += std::fabs(geo[s] - paper) / paper;
      ++err_n;
      std::snprintf(buf, sizeof(buf), " %s %.3f (paper %.2f)",
                    std::string(tw::schemes::scheme_name(m.kinds[s])).c_str(),
                    geo[s], paper);
      line += buf;
      if (s > 1) {
        const bool measured_up = geo[s] > geo[s - 1];
        const bool paper_up = paper > f.paper[s - 2];
        if (measured_up != paper_up) ok = false;
      }
    }
    line += ok ? " ranking ok" : " RANKING BROKEN";
    out.ranking_ok = out.ranking_ok && ok;
    out.lines.push_back(line);
  }
  out.err_pct = 100.0 * err_sum / err_n;
  return out;
}

std::string check_coverage(
    const Workload& w, const std::vector<tw::harness::RunMetrics>& results) {
  tw::harness::RunMetrics sum;
  for (const auto& r : results) {
    sum.writes += r.writes;
    sum.gap_moves += r.gap_moves;
    sum.write_pauses += r.write_pauses;
    sum.dram_writebacks += r.dram_writebacks;
    sum.palp_overlapped_reads += r.palp_overlapped_reads;
    sum.enc_coded_units += r.enc_coded_units;
    sum.fault_retries += r.fault_retries;
    sum.writes_batched += r.writes_batched;
  }
  if (sum.writes == 0) return "no writes were serviced";
  if (w.name == "server_256b") {
    if (sum.gap_moves == 0) return "Start-Gap never moved a line";
    if (sum.write_pauses == 0) return "no write was paused";
  }
  if (w.name == "tiered_palp") {
    if (sum.dram_writebacks == 0) return "the DRAM tier never wrote back";
    if (sum.palp_overlapped_reads == 0) return "PALP never overlapped a read";
    if (sum.enc_coded_units == 0) return "the encoder coded no unit";
    if (sum.fault_retries == 0) return "no fault retry ran";
    if (sum.writes_batched == 0) return "no multi-line batch was issued";
  }
  return "";
}

}  // namespace perfbench

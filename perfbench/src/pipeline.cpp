#include "pipeline.hpp"

#include <algorithm>
#include <cstring>

#include "tw/core/factory.hpp"
#include "tw/encode/encoded_scheme.hpp"

namespace perfbench {

namespace {

u64 mix(u64 h, u64 v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 27;
  return h;
}

u64 mix(u64 h, double v) {
  u64 bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return mix(h, bits);
}

u64 mix(u64 h, const std::string& s) {
  for (const char c : s) {
    h = mix(h, static_cast<u64>(static_cast<unsigned char>(c)));
  }
  return mix(h, static_cast<u64>(s.size()));
}

}  // namespace

u64 digest(const tw::harness::RunMetrics& m) {
  u64 h = 0x243F6A8885A308D3ull;
  h = mix(h, m.workload);
  h = mix(h, m.scheme);
  h = mix(h, static_cast<u64>(m.completed));
  for (const double v :
       {m.read_latency_ns, m.write_latency_ns, m.write_service_ns,
        m.write_units, m.ipc, m.runtime_ns, m.write_energy_pj,
        m.read_energy_pj, m.bits_per_write, m.read_p99_ns, m.write_p99_ns,
        m.batch_lines, m.batch_occupancy}) {
    h = mix(h, v);
  }
  for (const u64 v :
       {m.reads, m.writes, m.retired, m.sim_events, m.write_pauses,
        m.gap_moves, m.writes_batched, m.reads_forwarded, m.writes_coalesced,
        m.read_q_peak, m.write_q_peak, m.dispatch_rounds, m.row_hits,
        m.fault_retries, m.failed_lines, m.brownout_writes, m.stuck_remaps,
        m.palp_overlapped_reads, m.palp_pump_stalls, m.palp_write_overlaps,
        m.dram_hits, m.dram_misses, m.dram_writebacks, m.dram_clean_evicts,
        m.enc_writes, m.enc_coded_units, m.enc_tag_bits}) {
    h = mix(h, v);
  }
  return h;
}

Pipeline::Pipeline(const Cell& cell, SpanLog* log) : cell_(cell) {
  const tw::harness::SystemConfig& cfg = cell.cfg;
  const tw::mem::SchemeFactory factory =
      [&](u32) -> std::unique_ptr<tw::schemes::WriteScheme> {
    auto scheme = tw::encode::wrap_scheme(
        tw::core::make_scheme(cell.kind, cfg.pcm, cfg.tetris),
        cfg.encode.kind);
    if (log == nullptr) return scheme;
    auto probed = std::make_unique<ProbedScheme>(std::move(scheme), *log);
    schemes_.push_back(probed.get());
    return probed;
  };
  tw::mem::ControllerConfig ccfg = cfg.controller;
  if (cfg.batch.max_lines > 0) ccfg.write_batch = cfg.batch.max_lines;
  msys_.emplace(sim_, cfg.pcm, ccfg, factory, reg_, cfg.fault, cfg.seed,
                cell.profile.initial_ones_fraction, cfg.xbar_latency,
                cfg.sim_threads, cfg.dram);
  gen_.emplace(cell.profile, cfg.pcm.geometry, cfg.cores,
               cfg.seed * 0x9E3779B9u + 7);
  tw::mem::MemoryInterface* mem = &*msys_;
  tw::workload::RequestSource* src = &*gen_;
  if (log != nullptr) {
    source_.emplace(*gen_, *log);
    memory_.emplace(*msys_, *log);
    mem = &*memory_;
    src = &*source_;
  }
  cpus_.emplace(sim_, cfg.core, cfg.cores, *mem, *src,
                cfg.instructions_per_core);
}

void Pipeline::start() { cpus_->start(); }

tw::harness::RunMetrics Pipeline::finish() {
  tw::mem::MemorySystem& msys = *msys_;
  const tw::cpu::MultiCore& cpus = *cpus_;
  msys.run(cell_.cfg.max_sim_time);

  // The harvest below mirrors the tail of harness::run_system.
  tw::harness::RunMetrics m;
  m.workload = cell_.profile.name;
  m.scheme = std::string(msys.scheme().name());
  m.completed = cpus.all_finished();
  msys.merge_stats();
  auto counter = [&](const char* name) {
    return reg_.counter(name).value();
  };
  m.read_latency_ns = reg_.accumulator("mem.read_latency_ns").mean();
  m.write_latency_ns = reg_.accumulator("mem.write_latency_ns").mean();
  m.write_service_ns = reg_.accumulator("mem.write_service_ns").mean();
  m.write_units = reg_.accumulator("mem.write_units").mean();
  m.read_p99_ns = reg_.histogram("mem.read_latency_hist_ns").percentile(0.99);
  m.write_p99_ns =
      reg_.histogram("mem.write_latency_hist_ns").percentile(0.99);
  m.reads = counter("mem.reads");
  m.writes = counter("mem.writes");
  m.sim_events = msys.executed_events();
  m.retired = cpus.total_retired();
  m.ipc = cpus.aggregate_ipc();
  m.runtime_ns = tw::to_ns(cpus.runtime());
  u64 wear_bits = 0;
  u64 wear_writes = 0;
  for (u32 c = 0; c < msys.channels(); ++c) {
    m.write_energy_pj += msys.channel(c).energy().write_energy_pj();
    m.read_energy_pj += msys.channel(c).energy().read_energy_pj();
    const tw::pcm::WearSummary wear = msys.channel(c).wear().summary();
    wear_bits += wear.total_bits;
    wear_writes += wear.total_writes;
    m.read_q_peak =
        std::max<u64>(m.read_q_peak, msys.channel(c).read_queue_peak());
    m.write_q_peak =
        std::max<u64>(m.write_q_peak, msys.channel(c).write_queue_peak());
  }
  m.bits_per_write = wear_writes == 0 ? 0.0
                                      : static_cast<double>(wear_bits) /
                                            static_cast<double>(wear_writes);
  m.write_pauses = counter("mem.write_pauses");
  m.gap_moves = counter("mem.gap_moves");
  m.writes_batched = counter("mem.writes_batched");
  m.batch_lines = reg_.accumulator("mem.batch_lines").mean();
  m.batch_occupancy = reg_.accumulator("mem.batch_occupancy").mean();
  m.reads_forwarded = counter("mem.reads_forwarded");
  m.writes_coalesced = counter("mem.writes_coalesced");
  m.dispatch_rounds = counter("mem.dispatch_rounds");
  m.row_hits = counter("mem.row_hits");
  m.fault_retries = counter("mem.fault_retries");
  m.failed_lines = counter("mem.failed_lines");
  m.brownout_writes = counter("mem.brownout_writes");
  m.stuck_remaps = counter("mem.stuck_remaps");
  m.palp_overlapped_reads = counter("mem.palp_overlapped_reads");
  m.palp_pump_stalls = counter("mem.palp_pump_stalls");
  m.palp_write_overlaps = counter("mem.palp_write_overlaps");
  m.dram_hits = counter("mem.dram_hits");
  m.dram_misses = counter("mem.dram_misses");
  m.dram_writebacks = counter("mem.dram_writebacks");
  m.dram_clean_evicts = counter("mem.dram_clean_evicts");
  m.enc_writes = counter("mem.enc_writes");
  m.enc_coded_units = counter("mem.enc_coded_units");
  m.enc_tag_bits = counter("mem.enc_tag_bits");
  return m;
}

CellProbes Pipeline::probes() const {
  CellProbes p;
  if (memory_) p.sim = memory_->samples();
  for (const ProbedScheme* s : schemes_) {
    p.write_units += s->write_units();
    p.lines_planned += s->lines_planned();
  }
  return p;
}

tw::harness::RunMetrics run_cell(const Cell& cell, SpanLog* log,
                                 CellProbes* probes) {
  Pipeline p(cell, log);
  p.start();
  tw::harness::RunMetrics m = p.finish();
  if (log != nullptr) *probes = p.probes();
  return m;
}

}  // namespace perfbench

#pragma once
// FNV-1a digests that pin whole runs to recorded values: every
// RunMetrics field (doubles by bit pattern, so "equal" means the same
// arithmetic in the same order), and a Chrome trace's bytes minus the
// manifest values that name the build rather than the run. A lock
// compares a run's digest with a recorded hex literal; its failure
// message prints the observed digest so a deliberate model change can
// re-record it.

#include <bit>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>

#include "tw/common/types.hpp"
#include "tw/harness/experiment.hpp"

namespace tw::testing_digest {

inline u64 fnv1a(std::string_view bytes) {
  u64 h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  return h;
}

/// Every RunMetrics field as `name=value` text; doubles print as their
/// IEEE-754 bit pattern.
inline std::string metrics_fingerprint(const harness::RunMetrics& m) {
  std::string out = m.workload + "/" + m.scheme;
  char buf[64];
  const auto u = [&](const char* name, u64 v) {
    std::snprintf(buf, sizeof(buf), " %s=%llu", name,
                  static_cast<unsigned long long>(v));
    out += buf;
  };
  const auto d = [&](const char* name, double v) {
    std::snprintf(buf, sizeof(buf), " %s=0x%016llx", name,
                  static_cast<unsigned long long>(std::bit_cast<u64>(v)));
    out += buf;
  };
  u("completed", m.completed ? 1 : 0);
  d("read_latency_ns", m.read_latency_ns);
  d("write_latency_ns", m.write_latency_ns);
  d("write_service_ns", m.write_service_ns);
  d("write_units", m.write_units);
  d("ipc", m.ipc);
  d("runtime_ns", m.runtime_ns);
  u("reads", m.reads);
  u("writes", m.writes);
  u("retired", m.retired);
  u("sim_events", m.sim_events);
  d("write_energy_pj", m.write_energy_pj);
  d("read_energy_pj", m.read_energy_pj);
  d("bits_per_write", m.bits_per_write);
  d("read_p99_ns", m.read_p99_ns);
  d("write_p99_ns", m.write_p99_ns);
  u("write_pauses", m.write_pauses);
  u("gap_moves", m.gap_moves);
  u("writes_batched", m.writes_batched);
  d("batch_lines", m.batch_lines);
  d("batch_occupancy", m.batch_occupancy);
  u("reads_forwarded", m.reads_forwarded);
  u("writes_coalesced", m.writes_coalesced);
  u("read_q_peak", m.read_q_peak);
  u("write_q_peak", m.write_q_peak);
  u("dispatch_rounds", m.dispatch_rounds);
  u("row_hits", m.row_hits);
  u("trace_records", m.trace_records);
  u("trace_dropped", m.trace_dropped);
  u("trace_samples", m.trace_samples);
  u("fault_retries", m.fault_retries);
  u("failed_lines", m.failed_lines);
  u("brownout_writes", m.brownout_writes);
  u("stuck_remaps", m.stuck_remaps);
  u("palp_overlapped_reads", m.palp_overlapped_reads);
  u("palp_pump_stalls", m.palp_pump_stalls);
  u("palp_write_overlaps", m.palp_write_overlaps);
  u("dram_hits", m.dram_hits);
  u("dram_misses", m.dram_misses);
  u("dram_writebacks", m.dram_writebacks);
  u("dram_clean_evicts", m.dram_clean_evicts);
  u("enc_writes", m.enc_writes);
  u("enc_coded_units", m.enc_coded_units);
  u("enc_tag_bits", m.enc_tag_bits);
  return out;
}

inline u64 metrics_digest(const harness::RunMetrics& m) {
  return fnv1a(metrics_fingerprint(m));
}

/// FNV-1a over a Chrome trace, skipping the manifest's "version" and
/// "git_sha" values (they name the build, not the run).
inline u64 trace_digest(std::string json) {
  for (const char* key : {"\"version\":\"", "\"git_sha\":\""}) {
    const std::size_t at = json.find(key);
    if (at == std::string::npos) continue;
    const std::size_t value = at + std::string_view(key).size();
    json.erase(value, json.find('"', value) - value);
  }
  return fnv1a(json);
}

/// trace_digest of the file at `path`, which is then removed.
inline u64 trace_file_digest(const std::string& path) {
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  std::remove(path.c_str());
  return trace_digest(std::move(bytes));
}

}  // namespace tw::testing_digest

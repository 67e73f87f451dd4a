// Determinism: a run must be a pure function of its seed.
//
// The event kernel fires events in (tick, priority, insertion order)
// and parallel_for only distributes independent (workload, scheme)
// cells, so identical seeds must produce bit-identical metrics — both
// across repeated runs and across thread counts. Any drift here means
// scheduling nondeterminism leaked into the statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <string>
#include <vector>

#include "tw/common/parallel.hpp"
#include "tw/harness/experiment.hpp"
#include "tw/workload/profiles.hpp"

#include "run_digest.hpp"

namespace tw {
namespace {

using testing_digest::metrics_digest;
using testing_digest::metrics_fingerprint;
using testing_digest::trace_file_digest;

harness::SystemConfig small_config(u64 seed) {
  harness::SystemConfig cfg;
  cfg.cores = 2;
  // Enough traffic for a few hundred line writes on the write-heavy
  // profiles below; still well under a second per cell.
  cfg.instructions_per_core = 60'000;
  cfg.seed = seed;
  return cfg;
}

/// Run a small fig13-style matrix (2 write-heavy workloads x {DCW,
/// Tetris}) with the given parallel_for thread count and return the
/// flattened cells.
std::vector<harness::RunMetrics> run_small_matrix(u32 threads, u64 seed,
                                                  u32 batch_max_lines = 0) {
  const std::vector<const workload::WorkloadProfile*> workloads = {
      &workload::profile_by_name("vips"),
      &workload::profile_by_name("ferret")};
  const std::vector<schemes::SchemeKind> kinds = {
      schemes::SchemeKind::kDcw, schemes::SchemeKind::kTetris};
  std::vector<harness::RunMetrics> cells(workloads.size() * kinds.size());
  parallel_for(
      cells.size(),
      [&](std::size_t i) {
        const auto& w = *workloads[i / kinds.size()];
        harness::SystemConfig cfg = small_config(seed);
        cfg.batch.max_lines = batch_max_lines;
        cells[i] = harness::run_system(cfg, w, kinds[i % kinds.size()]);
      },
      threads);
  return cells;
}

void expect_identical(const harness::RunMetrics& a,
                      const harness::RunMetrics& b) {
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.completed, b.completed);
  // Exact equality on doubles is intentional: determinism means the same
  // arithmetic in the same order, not merely close results.
  EXPECT_EQ(a.read_latency_ns, b.read_latency_ns);
  EXPECT_EQ(a.write_latency_ns, b.write_latency_ns);
  EXPECT_EQ(a.write_service_ns, b.write_service_ns);
  EXPECT_EQ(a.write_units, b.write_units);
  EXPECT_EQ(a.ipc, b.ipc);
  EXPECT_EQ(a.runtime_ns, b.runtime_ns);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.retired, b.retired);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.write_energy_pj, b.write_energy_pj);
  EXPECT_EQ(a.read_energy_pj, b.read_energy_pj);
  EXPECT_EQ(a.bits_per_write, b.bits_per_write);
  EXPECT_EQ(a.read_p99_ns, b.read_p99_ns);
  EXPECT_EQ(a.write_p99_ns, b.write_p99_ns);
  EXPECT_EQ(a.write_pauses, b.write_pauses);
  EXPECT_EQ(a.gap_moves, b.gap_moves);
  EXPECT_EQ(a.writes_batched, b.writes_batched);
  EXPECT_EQ(a.batch_lines, b.batch_lines);
  EXPECT_EQ(a.batch_occupancy, b.batch_occupancy);
  // Controller queue statistics: peaks and per-round counts depend on the
  // exact interleaving of enqueues and dispatches, so any scheduling
  // nondeterminism surfaces here first.
  EXPECT_EQ(a.reads_forwarded, b.reads_forwarded);
  EXPECT_EQ(a.writes_coalesced, b.writes_coalesced);
  EXPECT_EQ(a.read_q_peak, b.read_q_peak);
  EXPECT_EQ(a.write_q_peak, b.write_q_peak);
  EXPECT_EQ(a.dispatch_rounds, b.dispatch_rounds);
  EXPECT_EQ(a.row_hits, b.row_hits);
  // PALP overlap counters (zero whenever PALP is off/degenerate).
  EXPECT_EQ(a.palp_overlapped_reads, b.palp_overlapped_reads);
  EXPECT_EQ(a.palp_pump_stalls, b.palp_pump_stalls);
  EXPECT_EQ(a.palp_write_overlaps, b.palp_write_overlaps);
  // DRAM front tier counters (zero whenever the tier is off).
  EXPECT_EQ(a.dram_hits, b.dram_hits);
  EXPECT_EQ(a.dram_misses, b.dram_misses);
  EXPECT_EQ(a.dram_writebacks, b.dram_writebacks);
  EXPECT_EQ(a.dram_clean_evicts, b.dram_clean_evicts);
}

TEST(Determinism, SameSeedSameStats) {
  const auto first = run_small_matrix(1, 42);
  const auto second = run_small_matrix(1, 42);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    SCOPED_TRACE(first[i].workload + "/" + first[i].scheme);
    // Guard against vacuous passes: every cell must see real traffic.
    EXPECT_TRUE(first[i].completed);
    EXPECT_GT(first[i].writes, 0u);
    EXPECT_GT(first[i].reads, 0u);
    EXPECT_GT(first[i].dispatch_rounds, 0u);
    EXPECT_GT(first[i].write_q_peak, 0u);
    expect_identical(first[i], second[i]);
  }
}

TEST(Determinism, ThreadCountInvariant) {
  // Default batching, per-line packing (batch.max_lines = 1) and
  // multi-line Tetris (4).
  for (const u32 max_lines : {0u, 1u, 4u}) {
    SCOPED_TRACE("batch.max_lines=" + std::to_string(max_lines));
    const auto serial = run_small_matrix(1, 42, max_lines);
    const auto threaded = run_small_matrix(4, 42, max_lines);
    ASSERT_EQ(serial.size(), threaded.size());
    bool any_batched = false;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE(serial[i].workload + "/" + serial[i].scheme);
      EXPECT_TRUE(serial[i].completed);
      EXPECT_GT(serial[i].writes, 0u);
      expect_identical(serial[i], threaded[i]);
      any_batched = any_batched || serial[i].writes_batched > 0;
    }
    // The K=4 runs must actually take the multi-line path somewhere.
    if (max_lines == 4) {
      EXPECT_TRUE(any_batched);
    }
  }
}

/// One vips/Tetris cell at the given channel count and (optionally)
/// Chrome trace path.
harness::RunMetrics run_channel_cell(u32 channels, u64 seed,
                                     const std::string& trace_path = "") {
  harness::SystemConfig cfg = small_config(seed);
  cfg.pcm.geometry.channels = channels;
  cfg.trace.chrome_path = trace_path;
  return harness::run_system(cfg, workload::profile_by_name("vips"),
                             schemes::SchemeKind::kTetris);
}

/// Compares a run's metrics with its recorded digest; a mismatch prints
/// the observed digest and every field.
void expect_pinned(const harness::RunMetrics& m, u64 want) {
  const u64 got = metrics_digest(m);
  EXPECT_EQ(got, want) << std::hex << "digest 0x" << got << "\n"
                       << metrics_fingerprint(m);
}

/// Compares a trace file's digest with its recorded value (and removes
/// the file).
void expect_trace_pinned(const std::string& path, u64 want) {
  const u64 got = trace_file_digest(path);
  EXPECT_EQ(got, want) << std::hex << "trace digest 0x" << got;
}

// The multi-channel locks below pin results recorded while the sharded
// engine still ran its channel phase on a thread pool; at the time the
// recorded values were checked identical at 1 and 4 simulation threads.
// They now hold the serial lockstep loop to those values.

TEST(Determinism, ChannelPhaseThreadCountInvariant) {
  // Same seed => the recorded RunMetrics at every channel count.
  const u32 channels[] = {1, 2, 8};
  const u64 want[] = {0x97c3950448a73ea5ull, 0xb83c1dc92526c59bull,
                      0x08e7fd54e73b3110ull};
  for (std::size_t i = 0; i < std::size(channels); ++i) {
    SCOPED_TRACE("channels=" + std::to_string(channels[i]));
    const auto m = run_channel_cell(channels[i], 42);
    EXPECT_TRUE(m.completed);
    EXPECT_GT(m.writes, 0u);
    EXPECT_GT(m.reads, 0u);
    expect_pinned(m, want[i]);
  }
}

TEST(Determinism, ChannelsActuallyShard) {
  // Guard against a vacuous pass of the channel locks: adding channels
  // must change behavior (more write bandwidth => shorter runtime), i.e.
  // the multi-channel path is really being exercised.
  const auto one = run_channel_cell(1, 42);
  const auto eight = run_channel_cell(8, 42);
  ASSERT_TRUE(one.completed);
  ASSERT_TRUE(eight.completed);
  EXPECT_LT(eight.runtime_ns, one.runtime_ns);
}

TEST(Determinism, TraceBytesInvariantAcrossThreadsAndChannels) {
  // Stronger than metric equality: the collected trace (ring creation
  // order + stable in-ring order + manifest) must serialize to the
  // recorded bytes, apart from the build's version and git sha.
  const u32 channels[] = {1, 8};
  const u64 want[] = {0x1c1cc42c9e8cd1e1ull, 0x7ef210b013f62092ull};
  for (std::size_t i = 0; i < std::size(channels); ++i) {
    SCOPED_TRACE("channels=" + std::to_string(channels[i]));
    const std::string path = testing::TempDir() + "tw_det_trace_c" +
                             std::to_string(channels[i]) + ".json";
    const auto m = run_channel_cell(channels[i], 42, path);
    EXPECT_TRUE(m.completed);
    EXPECT_GT(m.trace_records, 0u);
    EXPECT_EQ(m.trace_dropped, 0u);
    expect_trace_pinned(path, want[i]);
  }
}

/// One vips/Tetris cell with PALP on at the given partition and channel
/// counts (and optional Chrome trace path).
harness::RunMetrics run_palp_cell(u32 partitions, u32 channels, u64 seed,
                                  const std::string& trace_path = "") {
  harness::SystemConfig cfg = small_config(seed);
  cfg.pcm.geometry.subarrays_per_bank = partitions;
  cfg.pcm.geometry.channels = channels;
  cfg.controller.palp.enabled = true;
  cfg.trace.chrome_path = trace_path;
  return harness::run_system(cfg, workload::profile_by_name("vips"),
                             schemes::SchemeKind::kTetris);
}

TEST(Determinism, PalpThreadCountInvariant) {
  // PALP admission decisions depend on in-flight state (pump load, rww
  // reads), the kind of bookkeeping where scheduling nondeterminism would
  // leak first. Same seed => the recorded metrics at every
  // (partitions, channels) point.
  const u64 want[2][2] = {{0x97c3950448a73ea5ull, 0x08e7fd54e73b3110ull},
                          {0x6a0b9de10f59d9e1ull, 0xd6969eda43ac778full}};
  const u32 partitions[] = {1, 4};
  const u32 channels[] = {1, 8};
  for (std::size_t p = 0; p < 2; ++p) {
    for (std::size_t c = 0; c < 2; ++c) {
      SCOPED_TRACE("partitions=" + std::to_string(partitions[p]) +
                   " channels=" + std::to_string(channels[c]));
      const auto m = run_palp_cell(partitions[p], channels[c], 42);
      EXPECT_TRUE(m.completed);
      EXPECT_GT(m.writes, 0u);
      EXPECT_GT(m.reads, 0u);
      if (partitions[p] == 1) {
        // Degenerate geometry: PALP is inert and its counters stay zero.
        EXPECT_EQ(m.palp_overlapped_reads, 0u);
        EXPECT_EQ(m.palp_pump_stalls, 0u);
        EXPECT_EQ(m.palp_write_overlaps, 0u);
      } else {
        // Guard against a vacuous pass: at 4 partitions PALP must
        // actually overlap something.
        EXPECT_GT(m.palp_overlapped_reads + m.palp_write_overlaps, 0u);
      }
      expect_pinned(m, want[p][c]);
    }
  }
}

TEST(Determinism, PalpTraceBytesInvariant) {
  // The palp trace category rides in the same rings as everything else,
  // so the recorded trace bytes must hold with PALP emitting spans too.
  const u32 partitions[] = {1, 4};
  const u64 want[] = {0x162fa79bdc11cbfaull, 0xf4e2e4400eb77917ull};
  for (std::size_t i = 0; i < std::size(partitions); ++i) {
    SCOPED_TRACE("partitions=" + std::to_string(partitions[i]));
    const std::string path = testing::TempDir() + "tw_palp_trace_p" +
                             std::to_string(partitions[i]) + ".json";
    const auto m = run_palp_cell(partitions[i], 1, 42, path);
    EXPECT_TRUE(m.completed);
    EXPECT_GT(m.trace_records, 0u);
    EXPECT_EQ(m.trace_dropped, 0u);
    expect_trace_pinned(path, want[i]);
  }
}

TEST(Determinism, DifferentSeedsActuallyDiffer) {
  // Guards against the trivial failure mode where the seed is ignored and
  // the two tests above pass vacuously.
  const auto a = run_small_matrix(1, 42);
  const auto b = run_small_matrix(1, 43);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].sim_events != b[i].sim_events ||
        a[i].runtime_ns != b[i].runtime_ns) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace tw

// Differential scheduler test: the bank-indexed controller must be
// observationally identical to the frozen linear-scan reference
// (tests/reference_controller.hpp) — same completions in the same order
// with the same ticks, same rejections, same stats, energy, and wear —
// across randomized request streams covering every policy combination:
// strict/opportunistic drain, batching, write pausing, Start-Gap wear
// leveling, coalescing/forwarding on/off, and multi-subarray geometries.
//
// The streams here total well over 10k randomized requests. Any drift in
// issue order shows up as a tick or ordering mismatch in the completion
// log; any drift in resource modeling shows up in the stats block.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "reference_controller.hpp"
#include "tw/common/env.hpp"
#include "tw/common/rng.hpp"
#include "tw/core/factory.hpp"
#include "tw/harness/experiment.hpp"
#include "tw/mem/address_map.hpp"
#include "tw/mem/controller.hpp"
#include "tw/sim/simulator.hpp"
#include "tw/workload/profiles.hpp"

namespace tw::mem {
namespace {

// One request arrival in a pre-generated stream (identical for both
// controllers; acceptance/rejection is part of the observed behavior).
struct Arrival {
  Tick at = 0;
  bool write = false;
  Addr addr = 0;
  u64 word = 0;
};

struct StreamShape {
  u32 requests = 2000;
  double write_frac = 0.5;
  u64 num_lines = 256;     ///< footprint in cache lines
  u64 max_gap = ns(120);   ///< uniform inter-arrival gap bound
  u64 grid = 1;            ///< inter-arrival gaps are multiples of this
  /// Enqueue same-tick arrivals back to back, before the controller's
  /// dispatch for the first has run (as a space callback waking several
  /// cores does). Off: every arrival sees the rounds its predecessors
  /// triggered.
  bool bursts = false;
  u32 distinct_words = 8;  ///< small payload alphabet aids coalescing
};

std::vector<Arrival> make_stream(u64 seed, const StreamShape& shape) {
  Rng rng(seed);
  std::vector<Arrival> evs;
  evs.reserve(shape.requests);
  Tick t = 0;
  for (u32 i = 0; i < shape.requests; ++i) {
    t += rng.below(shape.max_gap / shape.grid + 1) * shape.grid;
    Arrival a;
    a.at = t;
    a.write = rng.chance(shape.write_frac);
    a.addr = rng.below(shape.num_lines) * 64;
    a.word = rng.below(shape.distinct_words) * 0x0101010101010101ull;
    evs.push_back(a);
  }
  return evs;
}

struct Completion {
  char kind = '?';
  u64 id = 0;
  Addr addr = 0;
  Tick enqueue = 0;
  Tick start = 0;
  Tick complete = 0;

  bool operator==(const Completion&) const = default;
};

/// Everything observable about one run.
struct Observation {
  std::vector<Completion> done;
  u64 rejects = 0;
  u64 sim_events = 0;
  bool idle = false;

  u64 reads = 0, writes = 0, forwarded = 0, coalesced = 0, silent = 0;
  u64 flipped = 0, pauses = 0, gap_moves = 0, batched = 0;
  u64 gap_requeues = 0;  ///< production-only: queued requests relocated
  u64 batch_issues = 0, batch_packs = 0;
  double batch_lines_sum = 0, batch_lines_max = 0, batch_occupancy_sum = 0;
  double read_lat_sum = 0, write_lat_sum = 0;
  double write_units_sum = 0, write_service_sum = 0;
  double write_pj = 0, read_pj = 0;
  u64 wear_writes = 0, wear_bits = 0, wear_max_line = 0, wear_lines = 0;
};

template <class ControllerT>
Observation run_one(const pcm::PcmConfig& pcm_cfg, ControllerConfig ccfg,
                    schemes::SchemeKind kind,
                    const std::vector<Arrival>& stream, bool bursts = false) {
  sim::Simulator sim;
  stats::Registry reg;
  const auto scheme = core::make_scheme(kind, pcm_cfg);
  ControllerT ctl(sim, pcm_cfg, ccfg, *scheme, reg);

  Observation obs;
  ctl.set_read_callback([&](const MemoryRequest& r) {
    obs.done.push_back(
        {'R', r.id, r.addr, r.enqueue_tick, r.start_tick, r.complete_tick});
  });
  ctl.set_write_callback([&](const MemoryRequest& r) {
    obs.done.push_back(
        {'W', r.id, r.addr, r.enqueue_tick, r.start_tick, r.complete_tick});
  });

  const u32 units = pcm_cfg.geometry.units_per_line();
  Tick last_at = kTickMax;
  for (const Arrival& a : stream) {
    if (!bursts || a.at != last_at) sim.run(a.at);
    last_at = a.at;
    MemoryRequest req;
    req.addr = a.addr;
    req.type = a.write ? ReqType::kWrite : ReqType::kRead;
    if (a.write) {
      req.data = pcm::LogicalLine(units);
      for (u32 i = 0; i < units; ++i) req.data.set_word(i, a.word + i);
    }
    if (!ctl.enqueue(std::move(req))) ++obs.rejects;
  }
  sim.run();

  obs.sim_events = sim.executed();
  obs.idle = ctl.idle();
  obs.reads = reg.counter("mem.reads").value();
  obs.writes = reg.counter("mem.writes").value();
  obs.forwarded = reg.counter("mem.reads_forwarded").value();
  obs.coalesced = reg.counter("mem.writes_coalesced").value();
  obs.silent = reg.counter("mem.writes_silent").value();
  obs.flipped = reg.counter("mem.units_flipped").value();
  obs.pauses = reg.counter("mem.write_pauses").value();
  obs.gap_moves = reg.counter("mem.gap_moves").value();
  obs.gap_requeues = reg.counter("mem.gap_requeues").value();
  obs.batched = reg.counter("mem.writes_batched").value();
  obs.batch_issues = reg.accumulator("mem.batch_lines").count();
  obs.batch_packs = reg.accumulator("mem.batch_occupancy").count();
  obs.batch_lines_sum = reg.accumulator("mem.batch_lines").sum();
  obs.batch_lines_max = reg.accumulator("mem.batch_lines").max();
  obs.batch_occupancy_sum = reg.accumulator("mem.batch_occupancy").sum();
  obs.read_lat_sum = reg.accumulator("mem.read_latency_ns").sum();
  obs.write_lat_sum = reg.accumulator("mem.write_latency_ns").sum();
  obs.write_units_sum = reg.accumulator("mem.write_units").sum();
  obs.write_service_sum = reg.accumulator("mem.write_service_ns").sum();
  obs.write_pj = ctl.energy().write_energy_pj();
  obs.read_pj = ctl.energy().read_energy_pj();
  const pcm::WearSummary wear = ctl.wear().summary();
  obs.wear_writes = wear.total_writes;
  obs.wear_bits = wear.total_bits;
  obs.wear_max_line = wear.max_line_bits;
  obs.wear_lines = wear.lines_touched;
  return obs;
}

void expect_equivalent(const Observation& idx, const Observation& ref) {
  // Strict drain legitimately strands a part-full write queue at end of
  // stream; what matters is that both controllers agree on the end state.
  EXPECT_EQ(idx.idle, ref.idle);
  ASSERT_EQ(idx.done.size(), ref.done.size());
  for (std::size_t i = 0; i < idx.done.size(); ++i) {
    if (!(idx.done[i] == ref.done[i])) {
      const Completion& a = idx.done[i];
      const Completion& b = ref.done[i];
      FAIL() << "completion " << i << " diverged: indexed {" << a.kind
             << " id=" << a.id << " addr=" << a.addr << " enq=" << a.enqueue
             << " start=" << a.start << " done=" << a.complete
             << "} vs reference {" << b.kind << " id=" << b.id
             << " addr=" << b.addr << " enq=" << b.enqueue
             << " start=" << b.start << " done=" << b.complete << "}";
    }
  }
  EXPECT_EQ(idx.rejects, ref.rejects);
  EXPECT_EQ(idx.sim_events, ref.sim_events);
  EXPECT_EQ(idx.reads, ref.reads);
  EXPECT_EQ(idx.writes, ref.writes);
  EXPECT_EQ(idx.forwarded, ref.forwarded);
  EXPECT_EQ(idx.coalesced, ref.coalesced);
  EXPECT_EQ(idx.silent, ref.silent);
  EXPECT_EQ(idx.flipped, ref.flipped);
  EXPECT_EQ(idx.pauses, ref.pauses);
  EXPECT_EQ(idx.gap_moves, ref.gap_moves);
  EXPECT_EQ(idx.batched, ref.batched);
  EXPECT_EQ(idx.batch_issues, ref.batch_issues);
  EXPECT_EQ(idx.batch_packs, ref.batch_packs);
  EXPECT_EQ(idx.batch_lines_sum, ref.batch_lines_sum);
  EXPECT_EQ(idx.batch_occupancy_sum, ref.batch_occupancy_sum);
  // Exact double equality: same arithmetic in the same order.
  EXPECT_EQ(idx.read_lat_sum, ref.read_lat_sum);
  EXPECT_EQ(idx.write_lat_sum, ref.write_lat_sum);
  EXPECT_EQ(idx.write_units_sum, ref.write_units_sum);
  EXPECT_EQ(idx.write_service_sum, ref.write_service_sum);
  EXPECT_EQ(idx.write_pj, ref.write_pj);
  EXPECT_EQ(idx.read_pj, ref.read_pj);
  EXPECT_EQ(idx.wear_writes, ref.wear_writes);
  EXPECT_EQ(idx.wear_bits, ref.wear_bits);
  EXPECT_EQ(idx.wear_max_line, ref.wear_max_line);
  EXPECT_EQ(idx.wear_lines, ref.wear_lines);
}

struct Scenario {
  std::string name;
  ControllerConfig cfg;
  schemes::SchemeKind kind = schemes::SchemeKind::kDcw;
  StreamShape shape;
  u32 subarrays_per_bank = 1;
  u32 seeds = 2;
};

void run_scenario(const Scenario& sc) {
  pcm::PcmConfig pcm_cfg = pcm::table2_config();
  pcm_cfg.geometry.subarrays_per_bank = sc.subarrays_per_bank;
  // Nightly CI multiplies the per-scenario seed count and offsets the
  // stream seeds (TW_FUZZ_SCALE / TW_FUZZ_SEED in tw/common/env.hpp);
  // the defaults keep the fast, fixed presubmit campaign. The trace
  // carries the absolute stream seed so any divergence reproduces with
  // a one-line local run.
  const u32 seeds = sc.seeds * fuzz_scale_env();
  for (u32 s = 0; s < seeds; ++s) {
    const u64 stream_seed = 0xC0FFEE + fuzz_seed_env() + s * 977;
    SCOPED_TRACE(sc.name + " stream_seed=" + std::to_string(stream_seed));
    const auto stream = make_stream(stream_seed, sc.shape);
    const auto idx =
        run_one<Controller>(pcm_cfg, sc.cfg, sc.kind, stream, sc.shape.bursts);
    const auto ref = run_one<ref::ReferenceController>(pcm_cfg, sc.cfg, sc.kind,
                                                       stream, sc.shape.bursts);
    // Guard against vacuous passes: every scenario must complete traffic.
    EXPECT_GT(idx.done.size(), 100u);
    expect_equivalent(idx, ref);
  }
}

TEST(SchedDiff, StrictDrainDcw) {
  Scenario sc;
  sc.name = "strict-dcw";
  sc.shape.requests = 2000;
  run_scenario(sc);
}

TEST(SchedDiff, OpportunisticDrainTetris) {
  Scenario sc;
  sc.name = "opportunistic-tetris";
  sc.cfg.drain = ControllerConfig::DrainPolicy::kOpportunistic;
  sc.kind = schemes::SchemeKind::kTetris;
  sc.shape.requests = 2000;
  sc.shape.write_frac = 0.7;
  run_scenario(sc);
}

TEST(SchedDiff, BatchedWritesMultiSubarray) {
  Scenario sc;
  sc.name = "batch4-tetris-sub4";
  sc.cfg.write_batch = 4;
  sc.kind = schemes::SchemeKind::kTetris;
  sc.subarrays_per_bank = 4;
  sc.shape.requests = 2000;
  sc.shape.write_frac = 0.8;
  run_scenario(sc);
}

TEST(SchedDiff, WritePausing) {
  Scenario sc;
  sc.name = "pausing-dcw";
  sc.cfg.write_pausing = true;
  sc.cfg.pause_quantum = ns(50);
  sc.shape.requests = 1500;
  sc.shape.write_frac = 0.6;
  sc.shape.num_lines = 64;  // concentrate traffic to force pause conflicts
  run_scenario(sc);

  // The scenario must actually exercise pausing, not skate past it.
  pcm::PcmConfig pcm_cfg = pcm::table2_config();
  const auto stream = make_stream(0xC0FFEE, sc.shape);
  const auto obs = run_one<Controller>(pcm_cfg, sc.cfg, sc.kind, stream);
  EXPECT_GT(obs.pauses, 0u);
}

TEST(SchedDiff, WearLevelingWithBatching) {
  Scenario sc;
  sc.name = "startgap-batch4";
  sc.cfg.wear_leveling = true;
  sc.cfg.start_gap.region_lines = 64;
  sc.cfg.start_gap.gap_write_interval = 8;
  sc.cfg.write_batch = 4;
  sc.shape.requests = 1500;
  sc.shape.write_frac = 0.7;
  sc.shape.num_lines = 128;  // two Start-Gap regions
  run_scenario(sc);

  pcm::PcmConfig pcm_cfg = pcm::table2_config();
  const auto stream = make_stream(0xC0FFEE, sc.shape);
  const auto obs = run_one<Controller>(pcm_cfg, sc.cfg, sc.kind, stream);
  EXPECT_GT(obs.gap_moves, 0u);
}

TEST(SchedDiff, GapMovesRelocateQueuedRequests) {
  // A gap move on every write in 16-line regions: lines that are still
  // queued move to another bank or subarray between dispatch rounds and
  // within a write round, which the controller must re-index without
  // changing the linear sweep's issue order.
  Scenario sc;
  sc.name = "startgap-every-write-sub4";
  sc.cfg.wear_leveling = true;
  sc.cfg.start_gap.region_lines = 16;
  sc.cfg.start_gap.gap_write_interval = 1;
  sc.subarrays_per_bank = 4;
  sc.shape.requests = 1500;
  sc.shape.write_frac = 0.6;
  sc.shape.num_lines = 64;  // four regions
  sc.shape.max_gap = ns(60);
  run_scenario(sc);

  pcm::PcmConfig pcm_cfg = pcm::table2_config();
  pcm_cfg.geometry.subarrays_per_bank = sc.subarrays_per_bank;
  const auto stream = make_stream(0xC0FFEE, sc.shape);
  const auto obs =
      run_one<Controller>(pcm_cfg, sc.cfg, sc.kind, stream, sc.shape.bursts);
  EXPECT_GT(obs.gap_moves, 0u);
  EXPECT_GT(obs.gap_requeues, 0u);
}

TEST(SchedDiff, PauseBoundariesLandOnDispatchTicks) {
  // Arrivals on a 40 ns grid (gaps of 0 or 40 ns, enqueued in bursts)
  // and a 10 ns pause quantum: reads that arrive while a write issued on
  // the grid is in service find it at a quantum boundary, so the pause
  // takes effect at `now` and frees the subarray in the middle of the
  // read round, with younger reads of the same burst still queued there.
  Scenario sc;
  sc.name = "pause-on-grid";
  sc.cfg.write_pausing = true;
  sc.cfg.pause_quantum = ns(10);
  sc.cfg.drain = ControllerConfig::DrainPolicy::kOpportunistic;
  sc.subarrays_per_bank = 2;
  sc.shape.requests = 1500;
  sc.shape.write_frac = 0.5;
  sc.shape.num_lines = 64;
  sc.shape.max_gap = ns(40);
  sc.shape.grid = ns(40);
  sc.shape.bursts = true;
  run_scenario(sc);

  pcm::PcmConfig pcm_cfg = pcm::table2_config();
  pcm_cfg.geometry.subarrays_per_bank = sc.subarrays_per_bank;
  const auto stream = make_stream(0xC0FFEE, sc.shape);
  const auto obs =
      run_one<Controller>(pcm_cfg, sc.cfg, sc.kind, stream, sc.shape.bursts);
  EXPECT_GT(obs.pauses, 0u);
}

TEST(SchedDiff, PausingPlusLevelingOpportunistic) {
  Scenario sc;
  sc.name = "pausing-startgap-opportunistic-sub2";
  sc.cfg.drain = ControllerConfig::DrainPolicy::kOpportunistic;
  sc.cfg.write_pausing = true;
  sc.cfg.pause_quantum = ns(50);
  sc.cfg.wear_leveling = true;
  sc.cfg.start_gap.region_lines = 64;
  sc.cfg.start_gap.gap_write_interval = 8;
  sc.subarrays_per_bank = 2;
  sc.shape.requests = 1500;
  sc.shape.write_frac = 0.5;
  sc.shape.num_lines = 128;
  run_scenario(sc);
}

TEST(SchedDiff, PauseDrainInteractionFamily) {
  // The pause machinery interacts with the drain-mode state machine: a
  // paused write holds its bank while the queue level crosses the
  // drain/low-watermark thresholds, and the two controllers must agree on
  // which request wins the bank after every pause-resume. Sweep both
  // drain policies against short and long pause quanta and both watermark
  // settings; concentrated traffic forces genuine pause conflicts.
  for (const auto drain : {ControllerConfig::DrainPolicy::kStrict,
                           ControllerConfig::DrainPolicy::kOpportunistic}) {
    for (const u32 watermark : {0u, 4u}) {
      for (const Tick quantum : {ns(20), ns(200)}) {
        Scenario sc;
        sc.name = std::string("pause-drain-") +
                  (drain == ControllerConfig::DrainPolicy::kStrict
                       ? "strict"
                       : "opportunistic") +
                  "-wm" + std::to_string(watermark) + "-q" +
                  std::to_string(quantum);
        sc.cfg.drain = drain;
        sc.cfg.drain_low_watermark = watermark;
        sc.cfg.write_pausing = true;
        sc.cfg.pause_quantum = quantum;
        sc.shape.requests = 1200;
        sc.shape.write_frac = 0.6;
        sc.shape.num_lines = 64;
        sc.shape.max_gap = ns(60);  // oversubscribed: drains happen
        run_scenario(sc);
      }
    }
  }

  // The family must actually pause under both drain policies.
  pcm::PcmConfig pcm_cfg = pcm::table2_config();
  for (const auto drain : {ControllerConfig::DrainPolicy::kStrict,
                           ControllerConfig::DrainPolicy::kOpportunistic}) {
    ControllerConfig ccfg;
    ccfg.drain = drain;
    ccfg.drain_low_watermark = 4;
    ccfg.write_pausing = true;
    ccfg.pause_quantum = ns(20);
    StreamShape shape;
    shape.requests = 1200;
    shape.write_frac = 0.6;
    shape.num_lines = 64;
    shape.max_gap = ns(60);
    const auto stream = make_stream(0xC0FFEE, shape);
    const auto obs =
        run_one<Controller>(pcm_cfg, ccfg, schemes::SchemeKind::kDcw, stream);
    EXPECT_GT(obs.pauses, 0u);
  }
}

TEST(SchedDiff, PausedWritesUnderBackpressure) {
  // Pausing while the queues are saturated: resumed writes compete with a
  // full write queue and rejected arrivals, so the pause bookkeeping must
  // not leak queue slots in either controller.
  Scenario sc;
  sc.name = "pause-tiny-queues";
  sc.cfg.write_pausing = true;
  sc.cfg.pause_quantum = ns(50);
  sc.cfg.read_queue_entries = 8;
  sc.cfg.write_queue_entries = 8;
  sc.cfg.drain_low_watermark = 2;
  sc.shape.requests = 1500;
  sc.shape.write_frac = 0.6;
  sc.shape.num_lines = 64;
  sc.shape.max_gap = ns(40);
  run_scenario(sc);

  pcm::PcmConfig pcm_cfg = pcm::table2_config();
  const auto stream = make_stream(0xC0FFEE, sc.shape);
  const auto obs = run_one<Controller>(pcm_cfg, sc.cfg, sc.kind, stream);
  EXPECT_GT(obs.pauses, 0u);
  EXPECT_GT(obs.rejects, 0u);
}

TEST(SchedDiff, PausingBatchedTetrisOpportunistic) {
  // Batched writes + pausing + opportunistic drain: a paused batch holds
  // several lines' worth of service, the strongest stress on the bank
  // epoch bookkeeping shared by the pause and drain paths.
  Scenario sc;
  sc.name = "pause-batch4-tetris-opportunistic";
  sc.cfg.drain = ControllerConfig::DrainPolicy::kOpportunistic;
  sc.cfg.write_pausing = true;
  sc.cfg.pause_quantum = ns(50);
  sc.cfg.write_batch = 4;
  sc.kind = schemes::SchemeKind::kTetris;
  sc.subarrays_per_bank = 4;
  sc.shape.requests = 1500;
  sc.shape.write_frac = 0.7;
  sc.shape.num_lines = 64;
  run_scenario(sc);
}

TEST(SchedDiff, BatchMaxLinesOneDegeneracyFamily) {
  // batch.max_lines=1 maps to write_batch=1 in the harness (see
  // experiment.cpp): single-line batch formation must degenerate to the
  // unbatched per-line issue path, bit-identical to the frozen reference
  // controller across schemes and drain policies. Any multi-line machinery
  // leaking into the K=1 case (extra events, different service pricing,
  // spurious batch stats) diverges here.
  for (const auto kind : {schemes::SchemeKind::kTetris,
                          schemes::SchemeKind::kDcw,
                          schemes::SchemeKind::kFlipNWrite}) {
    for (const auto drain : {ControllerConfig::DrainPolicy::kStrict,
                             ControllerConfig::DrainPolicy::kOpportunistic}) {
      Scenario sc;
      sc.name = std::string("batch1-") + std::string(schemes::scheme_name(kind)) +
                (drain == ControllerConfig::DrainPolicy::kStrict
                     ? "-strict"
                     : "-opportunistic");
      sc.cfg.write_batch = 1;
      sc.cfg.drain = drain;
      sc.kind = kind;
      sc.seeds = 1;
      sc.shape.requests = 1200;
      sc.shape.write_frac = 0.7;
      run_scenario(sc);
    }
  }

  // And the K=1 runs must record zero multi-line batches: the degenerate
  // case takes the per-line path, it doesn't form 1-line batches.
  pcm::PcmConfig pcm_cfg = pcm::table2_config();
  ControllerConfig ccfg;
  ccfg.write_batch = 1;
  StreamShape shape;
  shape.requests = 1200;
  shape.write_frac = 0.7;
  const auto stream = make_stream(0xC0FFEE, shape);
  const auto obs = run_one<Controller>(pcm_cfg, ccfg,
                                       schemes::SchemeKind::kTetris, stream);
  EXPECT_EQ(obs.batched, 0u);
  EXPECT_EQ(obs.batch_issues, 0u);
  EXPECT_EQ(obs.batch_packs, 0u);
}

TEST(SchedDiff, BatchMaxLinesDegeneracyAtHarnessLevel) {
  // Same degeneracy one layer up: a full system run with batch.max_lines=1
  // must be bit-identical to the untouched default (the controller's
  // write_batch already defaults to 1), and both must record no batches.
  harness::SystemConfig base;
  base.cores = 2;
  base.instructions_per_core = 30'000;
  base.seed = 7;
  harness::SystemConfig k1 = base;
  k1.batch.max_lines = 1;
  const auto& wl = workload::profile_by_name("vips");
  const auto a =
      harness::run_system(base, wl, schemes::SchemeKind::kTetris);
  const auto b = harness::run_system(k1, wl, schemes::SchemeKind::kTetris);
  EXPECT_TRUE(a.completed);
  EXPECT_GT(a.writes, 0u);
  EXPECT_EQ(a.ipc, b.ipc);
  EXPECT_EQ(a.runtime_ns, b.runtime_ns);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.write_latency_ns, b.write_latency_ns);
  EXPECT_EQ(a.write_service_ns, b.write_service_ns);
  EXPECT_EQ(a.write_energy_pj, b.write_energy_pj);
  EXPECT_EQ(a.writes_batched, b.writes_batched);
  EXPECT_EQ(a.writes_batched, 0u);
  EXPECT_EQ(a.batch_lines, b.batch_lines);
  EXPECT_EQ(a.batch_occupancy, b.batch_occupancy);
}

TEST(SchedDiff, MultiLineBatchVsReferenceUpToEight) {
  // The multi-line path itself, differentially: K in {2, 8} batched Tetris
  // against the frozen reference controller on write-heavy streams.
  for (const u32 k : {2u, 8u}) {
    Scenario sc;
    sc.name = "batchK" + std::to_string(k) + "-tetris";
    sc.cfg.write_batch = k;
    sc.kind = schemes::SchemeKind::kTetris;
    sc.seeds = 1;
    sc.shape.requests = 2000;
    sc.shape.write_frac = 0.8;
    run_scenario(sc);
  }
}

TEST(SchedDiff, MultiLineBatchAgeAndDrainOrder) {
  // Strict age-ordering and drain-cutoff rules with K > 1: same-bank
  // writes must complete in enqueue (age) order — batch formation takes a
  // lead write plus *older-than-any-later-arrival* same-bank followers,
  // never reordering across a drain boundary — and no batch may exceed
  // the configured line cap.
  pcm::PcmConfig pcm_cfg = pcm::table2_config();
  ControllerConfig ccfg;
  ccfg.write_batch = 4;
  StreamShape shape;
  shape.requests = 2500;
  shape.write_frac = 0.8;
  shape.num_lines = 64;  // few banks' worth: deep same-bank queues
  const auto stream = make_stream(0xA9E0, shape);
  const auto obs = run_one<Controller>(pcm_cfg, ccfg,
                                       schemes::SchemeKind::kTetris, stream);

  // The stream must actually exercise multi-line batches.
  EXPECT_GT(obs.batched, 0u);
  EXPECT_GT(obs.batch_packs, 0u);
  // Drain cutoff: no batch ever exceeds write_batch lines.
  EXPECT_LE(obs.batch_lines_max, static_cast<double>(ccfg.write_batch));
  EXPECT_GT(obs.batch_lines_max, 1.0);

  // Completion callbacks fire in simulated-time order, and within one
  // batch in the batch's own line order — so per bank, the write
  // completion log must be non-decreasing in enqueue tick.
  const mem::AddressMap map(pcm_cfg.geometry);
  std::vector<Tick> last_enqueue(map.total_banks(), 0);
  u32 write_completions = 0;
  for (const Completion& c : obs.done) {
    if (c.kind != 'W') continue;
    ++write_completions;
    const u32 bank = map.flat_bank(c.addr);
    EXPECT_GE(c.enqueue, last_enqueue[bank])
        << "bank " << bank << " write id " << c.id
        << " completed before an older same-bank write";
    last_enqueue[bank] = c.enqueue;
  }
  EXPECT_GT(write_completions, 500u);
}

TEST(SchedDiff, PalpDisabledFamilyMultiSubarray) {
  // With palp.enabled=false the PALP machinery must be completely inert:
  // multi-subarray runs stay bit-identical to the frozen reference
  // controller (which predates PALP and ignores the config block) across
  // schemes and drain policies.
  for (const u32 subarrays : {4u, 8u}) {
    for (const auto kind :
         {schemes::SchemeKind::kDcw, schemes::SchemeKind::kTetris}) {
      for (const auto drain :
           {ControllerConfig::DrainPolicy::kStrict,
            ControllerConfig::DrainPolicy::kOpportunistic}) {
        Scenario sc;
        sc.name = std::string("palp-off-sub") + std::to_string(subarrays) +
                  "-" + std::string(schemes::scheme_name(kind)) +
                  (drain == ControllerConfig::DrainPolicy::kStrict
                       ? "-strict"
                       : "-opportunistic");
        sc.cfg.palp.enabled = false;
        sc.cfg.drain = drain;
        sc.kind = kind;
        sc.subarrays_per_bank = subarrays;
        sc.seeds = 1;
        sc.shape.requests = 1200;
        sc.shape.write_frac = 0.6;
        run_scenario(sc);
      }
    }
  }
}

TEST(SchedDiff, PalpSinglePartitionDegeneracy) {
  // palp.enabled=true at 1 subarray/bank: the controller detects the
  // degenerate geometry and falls back to the baseline scheduler, so the
  // run must still be bit-identical to the PALP-oblivious reference.
  Scenario sc;
  sc.name = "palp-on-sub1-tetris";
  sc.cfg.palp.enabled = true;
  sc.kind = schemes::SchemeKind::kTetris;
  sc.subarrays_per_bank = 1;
  sc.shape.requests = 1500;
  sc.shape.write_frac = 0.6;
  run_scenario(sc);
}

TEST(SchedDiff, NoCoalescingNoForwardingThreeStage) {
  Scenario sc;
  sc.name = "raw-threestage";
  sc.cfg.write_coalescing = false;
  sc.cfg.read_forwarding = false;
  sc.kind = schemes::SchemeKind::kThreeStage;
  sc.shape.requests = 1000;
  run_scenario(sc);
}

TEST(SchedDiff, TinyQueuesBackpressure) {
  Scenario sc;
  sc.name = "tiny-queues";
  sc.cfg.read_queue_entries = 8;
  sc.cfg.write_queue_entries = 8;
  sc.cfg.drain_low_watermark = 2;
  sc.shape.requests = 1500;
  sc.shape.max_gap = ns(40);  // oversubscribe to force rejections
  run_scenario(sc);

  pcm::PcmConfig pcm_cfg = pcm::table2_config();
  const auto stream = make_stream(0xC0FFEE, sc.shape);
  const auto obs = run_one<Controller>(pcm_cfg, sc.cfg, sc.kind, stream);
  EXPECT_GT(obs.rejects, 0u);
}

}  // namespace
}  // namespace tw::mem

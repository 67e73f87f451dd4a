// Tests for the substrate extensions beyond the paper's core evaluation:
// Start-Gap wear leveling, write pausing, the cache-filtered request
// source, packing-order variants, analysis-cost accounting, and the
// config-file loader.

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "tw/core/factory.hpp"
#include "tw/harness/config_file.hpp"
#include "tw/mem/start_gap.hpp"
#include "tw/workload/cache_filtered.hpp"

namespace tw {
namespace {

// ------------------------------------------------------------- start-gap --
TEST(StartGap, MappingIsBijective) {
  mem::StartGapConfig cfg;
  cfg.region_lines = 64;
  cfg.randomize = true;
  mem::StartGapLeveler lev(cfg);
  std::set<u64> slots;
  for (u64 l = 0; l < 64; ++l) {
    const u64 s = lev.map(l);
    EXPECT_LE(s, 64u);
    EXPECT_TRUE(slots.insert(s).second) << "collision at slot " << s;
  }
  EXPECT_EQ(slots.count(lev.gap()), 0u);  // gap slot stays empty
}

TEST(StartGap, BijectiveAfterEveryMove) {
  mem::StartGapConfig cfg;
  cfg.region_lines = 16;
  cfg.gap_write_interval = 1;  // move on every write
  mem::StartGapLeveler lev(cfg);
  for (int w = 0; w < 200; ++w) {
    lev.on_write();
    std::set<u64> slots;
    for (u64 l = 0; l < 16; ++l) slots.insert(lev.map(l));
    ASSERT_EQ(slots.size(), 16u) << "after move " << w;
    ASSERT_EQ(slots.count(lev.gap()), 0u);
  }
  EXPECT_EQ(lev.gap_moves(), 200u);
}

TEST(StartGap, GapWrapsAndStartAdvances) {
  mem::StartGapConfig cfg;
  cfg.region_lines = 4;
  cfg.gap_write_interval = 1;
  cfg.randomize = false;
  mem::StartGapLeveler lev(cfg);
  EXPECT_EQ(lev.gap(), 4u);
  for (int i = 0; i < 4; ++i) lev.on_write();
  EXPECT_EQ(lev.gap(), 0u);
  EXPECT_EQ(lev.start(), 0u);
  const auto wrap = lev.on_write();  // gap 0 -> N, start++
  ASSERT_TRUE(wrap.has_value());
  EXPECT_EQ(wrap->from_physical, 4u);
  EXPECT_EQ(wrap->to_physical, 0u);
  EXPECT_EQ(lev.gap(), 4u);
  EXPECT_EQ(lev.start(), 1u);
}

TEST(StartGap, EveryLineVisitsEverySlot) {
  mem::StartGapConfig cfg;
  cfg.region_lines = 8;
  cfg.gap_write_interval = 1;
  cfg.randomize = false;
  mem::StartGapLeveler lev(cfg);
  std::set<u64> visited;
  // One full rotation = N * (N+1) moves.
  for (int m = 0; m < 8 * 9; ++m) {
    visited.insert(lev.map(3));
    lev.on_write();
  }
  EXPECT_EQ(visited.size(), 9u);  // line 3 visited all 9 physical slots
}

TEST(StartGap, MoveContractIsConsistentWithMapping) {
  // The line living in move.from_physical before the move must map to
  // move.to_physical after it.
  mem::StartGapConfig cfg;
  cfg.region_lines = 32;
  cfg.gap_write_interval = 1;
  mem::StartGapLeveler lev(cfg);
  for (int m = 0; m < 300; ++m) {
    // Find which logical line sits at the would-be source.
    u64 source_logical = ~u64{0};
    for (u64 l = 0; l < 32; ++l) {
      if (lev.map(l) == (lev.gap() == 0 ? 32 : lev.gap() - 1)) {
        source_logical = l;
        break;
      }
    }
    const auto move = lev.on_write();
    ASSERT_TRUE(move.has_value());
    if (source_logical != ~u64{0}) {
      EXPECT_EQ(lev.map(source_logical), move->to_physical);
    }
  }
}

TEST(StartGap, RandomizeSpreadsNeighbours) {
  mem::StartGapConfig cfg;
  cfg.region_lines = 1 << 12;
  mem::StartGapLeveler lev(cfg);
  // Adjacent logical lines should rarely be adjacent physically.
  u32 adjacent = 0;
  for (u64 l = 0; l + 1 < 256; ++l) {
    const i64 d = static_cast<i64>(lev.map(l + 1)) -
                  static_cast<i64>(lev.map(l));
    if (d == 1 || d == -1) ++adjacent;
  }
  EXPECT_LT(adjacent, 10u);
}

TEST(StartGap, InvalidConfigRejected) {
  mem::StartGapConfig cfg;
  cfg.region_lines = 1;
  EXPECT_THROW(mem::StartGapLeveler{cfg}, ContractViolation);
  cfg = {};
  cfg.region_lines = 100;  // not a power of two but randomize on
  cfg.randomize = true;
  EXPECT_THROW(mem::StartGapLeveler{cfg}, ContractViolation);
}

// ------------------------------------------- controller + wear leveling --
struct SysFixture {
  sim::Simulator sim;
  stats::Registry reg;
  std::unique_ptr<schemes::WriteScheme> scheme;
  std::unique_ptr<mem::Controller> ctl;

  explicit SysFixture(mem::ControllerConfig ccfg,
                      schemes::SchemeKind kind = schemes::SchemeKind::kDcw) {
    scheme = core::make_scheme(kind, pcm::table2_config());
    ctl = std::make_unique<mem::Controller>(sim, pcm::table2_config(), ccfg,
                                            *scheme, reg);
  }

  mem::MemoryRequest write_req(Addr addr, u64 word) {
    mem::MemoryRequest r;
    r.addr = addr;
    r.type = mem::ReqType::kWrite;
    pcm::LogicalLine d(8);
    for (u32 i = 0; i < 8; ++i) d.set_word(i, word + i);
    r.data = d;
    return r;
  }
  mem::MemoryRequest read_req(Addr addr) {
    mem::MemoryRequest r;
    r.addr = addr;
    r.type = mem::ReqType::kRead;
    return r;
  }
};

TEST(WearLeveling, GapMovesHappenAndDataSurvives) {
  mem::ControllerConfig ccfg;
  ccfg.drain = mem::ControllerConfig::DrainPolicy::kOpportunistic;
  ccfg.wear_leveling = true;
  ccfg.start_gap.region_lines = 256;
  ccfg.start_gap.gap_write_interval = 4;
  SysFixture f(ccfg);

  // Write a set of lines, then rewrite to trigger gap movement.
  for (int round = 0; round < 6; ++round) {
    for (Addr a = 0; a < 16 * 64; a += 64) {
      ASSERT_TRUE(f.ctl->enqueue(f.write_req(a, 0x100 * round + a)));
      f.sim.run();
    }
  }
  EXPECT_GT(f.ctl->gap_moves(), 10u);

  // Every line still reads back its latest data through the mapping.
  for (Addr a = 0; a < 16 * 64; a += 64) {
    const Addr phys = f.ctl->physical_of(a);
    EXPECT_EQ(f.ctl->store().read_logical(phys).word(0), 0x500 + a);
  }
}

TEST(WearLeveling, SpreadsHotLineWear) {
  auto run = [](bool leveling) {
    mem::ControllerConfig ccfg;
    ccfg.drain = mem::ControllerConfig::DrainPolicy::kOpportunistic;
    ccfg.wear_leveling = leveling;
    ccfg.start_gap.region_lines = 64;
    ccfg.start_gap.gap_write_interval = 2;
    SysFixture f(ccfg);
    Rng rng(7);
    for (int w = 0; w < 600; ++w) {
      // One scorching-hot line.
      EXPECT_TRUE(f.ctl->enqueue(f.write_req(0x0, rng.next())));
      f.sim.run();
    }
    // Hottest line's share of all demand-write wear.
    const auto summary = f.ctl->wear().summary();
    u64 max_writes = 0;
    for (Addr a = 0; a < 70 * 64; a += 64) {
      max_writes = std::max(max_writes, f.ctl->wear().line(a).writes);
    }
    return static_cast<double>(max_writes) /
           static_cast<double>(summary.total_writes);
  };
  const double without = run(false);
  const double with = run(true);
  EXPECT_GT(without, 0.95);  // all wear on one line
  EXPECT_LT(with, 0.35);     // spread across the region
}

// -------------------------------------------------------- write pausing --
TEST(WritePausing, ReadPreemptsLongWrite) {
  auto read_latency = [](bool pausing) {
    mem::ControllerConfig ccfg;
    ccfg.drain = mem::ControllerConfig::DrainPolicy::kOpportunistic;
    ccfg.write_pausing = pausing;
    SysFixture f(ccfg);  // DCW: ~3.5 us writes
    Tick done = 0;
    f.ctl->set_read_callback(
        [&](const mem::MemoryRequest& r) { done = r.complete_tick; });
    // Start a long write on bank 0, then read the same bank mid-service.
    EXPECT_TRUE(f.ctl->enqueue(f.write_req(0, 1)));
    f.sim.run(ns(200));
    EXPECT_TRUE(f.ctl->enqueue(f.read_req(8 * 64)));  // bank 0
    f.sim.run();
    return done;
  };
  const Tick without = read_latency(false);
  const Tick with = read_latency(true);
  EXPECT_GT(without, ns(3000));  // waits behind the full write
  EXPECT_LT(with, ns(1000));     // issues at the next write-unit boundary
}

TEST(WritePausing, PausedWriteStillCompletes) {
  mem::ControllerConfig ccfg;
  ccfg.drain = mem::ControllerConfig::DrainPolicy::kOpportunistic;
  ccfg.write_pausing = true;
  SysFixture f(ccfg);
  int writes_done = 0;
  f.ctl->set_write_callback(
      [&](const mem::MemoryRequest&) { ++writes_done; });
  EXPECT_TRUE(f.ctl->enqueue(f.write_req(0, 1)));
  f.sim.run(ns(100));
  EXPECT_TRUE(f.ctl->enqueue(f.read_req(8 * 64)));
  f.sim.run();
  EXPECT_EQ(writes_done, 1);
  EXPECT_GT(f.reg.counter("mem.write_pauses").value(), 0u);
  EXPECT_TRUE(f.ctl->idle());
  // The paused write's latency grew by the read it yielded to.
  EXPECT_GT(f.reg.accumulator("mem.write_latency_ns").mean(), 3490.0);
}

TEST(WritePausing, NoPauseNearCompletion) {
  mem::ControllerConfig ccfg;
  ccfg.drain = mem::ControllerConfig::DrainPolicy::kOpportunistic;
  ccfg.write_pausing = true;
  SysFixture f(ccfg);
  EXPECT_TRUE(f.ctl->enqueue(f.write_req(0, 1)));
  // Let the write run into its final pause quantum (DCW service is
  // 3490 ns; the last 430 ns boundary before the end is at 3440 ns)
  // before the read shows up.
  f.sim.run(ns(3450));
  EXPECT_TRUE(f.ctl->enqueue(f.read_req(8 * 64)));
  f.sim.run();
  EXPECT_EQ(f.reg.counter("mem.write_pauses").value(), 0u);
}

// ------------------------------------------------- cache-filtered source --
TEST(CacheFiltered, EmitsOnlyMissesAndWritebacks) {
  workload::WorkloadProfile p = workload::profile_by_name("ferret");
  p.rpki = 50;  // CPU-level rates
  p.wpki = 20;
  p.working_set_lines = 1 << 20;  // 64 MB: larger than the 32 MB L3
  cache::HierarchyConfig h;
  workload::CacheFilteredSource src(p, pcm::GeometryParams{}, h, 1, 5);
  for (int i = 0; i < 3000; ++i) {
    const workload::TraceOp op = src.next(0);
    EXPECT_EQ(op.addr % 64, 0u);
  }
  // The caches absorb part of the traffic even for an L3-busting set
  // (short-term reuse and the shared region), but not all of it.
  EXPECT_LT(src.effective_mem_per_kilo(0), 0.95 * (50.0 + 20.0));
  EXPECT_GT(src.effective_mem_per_kilo(0), 0.0);
  EXPECT_GT(src.hierarchy(0).l1d().hits(), 0u);
}

TEST(CacheFiltered, GapsGrowWithCacheHits) {
  workload::WorkloadProfile p = workload::profile_by_name("ferret");
  p.rpki = 100;
  p.wpki = 30;
  p.working_set_lines = 128;  // tiny: nearly everything hits after warmup
  cache::HierarchyConfig h;
  workload::CacheFilteredSource src(p, pcm::GeometryParams{}, h, 1, 5);
  // Warm up.
  for (int i = 0; i < 50; ++i) src.next(0);
  stats::Accumulator gaps;
  for (int i = 0; i < 50; ++i) {
    gaps.add(static_cast<double>(src.next(0).gap));
  }
  // Many CPU ops are folded into each emitted memory request.
  EXPECT_GT(gaps.mean(), 3.0 * (1000.0 / 130.0));
}

TEST(CacheFiltered, DrivesFullSystem) {
  sim::Simulator sim;
  stats::Registry reg;
  const auto scheme =
      core::make_scheme(schemes::SchemeKind::kTetris, pcm::table2_config());
  mem::ControllerConfig ccfg;
  mem::Controller ctl(sim, pcm::table2_config(), ccfg, *scheme, reg);
  workload::WorkloadProfile p = workload::profile_by_name("vips");
  p.rpki = 60;
  p.wpki = 25;
  p.working_set_lines = 1 << 18;  // 16 MB: real L3 misses
  workload::CacheFilteredSource src(p, pcm::GeometryParams{},
                                    cache::HierarchyConfig{}, 2, 5);
  cpu::MultiCore cpus(sim, cpu::CoreConfig{}, 2, ctl, src, 40'000);
  cpus.start();
  sim.run(ms(5'000));
  EXPECT_TRUE(cpus.all_finished());
  EXPECT_GT(reg.counter("mem.reads").value(), 0u);
}

// ------------------------------------------------------------ pack order --
TEST(PackOrder, VariantsAllVerify) {
  Rng rng(9);
  for (const auto order :
       {core::PackOrder::kFirstFitDecreasing,
        core::PackOrder::kFirstFitArrival,
        core::PackOrder::kBestFitDecreasing}) {
    core::PackerConfig cfg;
    cfg.order = order;
    cfg.budget = 48;
    for (int trial = 0; trial < 60; ++trial) {
      std::vector<core::UnitCounts> counts;
      for (u32 i = 0; i < 8; ++i) {
        counts.push_back(core::UnitCounts{
            i, static_cast<u32>(rng.below(30)),
            static_cast<u32>(rng.below(20))});
      }
      const core::PackResult r = core::pack(counts, cfg);
      core::verify_pack(counts, cfg, r);
    }
  }
}

TEST(PackOrder, DecreasingNeverWorseThanArrivalOnAdversarialCase) {
  // Classic FFD vs FF case: big items after small ones.
  std::vector<core::UnitCounts> counts = {
      {0, 10, 0}, {1, 10, 0}, {2, 10, 0}, {3, 25, 0}, {4, 25, 0},
  };
  core::PackerConfig ffd;
  ffd.budget = 32;
  core::PackerConfig ffa = ffd;
  ffa.order = core::PackOrder::kFirstFitArrival;
  EXPECT_LE(core::pack(counts, ffd).result,
            core::pack(counts, ffa).result);
}

TEST(PackCost, FitChecksBoundedForPaperGeometry) {
  // 8 units, K=8: the analysis must stay within a hardware-friendly
  // operation count (the paper's 41-cycle budget at 400 MHz).
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<core::UnitCounts> counts;
    for (u32 i = 0; i < 8; ++i) {
      counts.push_back(core::UnitCounts{
          i, static_cast<u32>(rng.below(33)),
          static_cast<u32>(rng.below(33))});
    }
    const core::PackResult r = core::pack(counts, core::PackerConfig{});
    // Worst case: each of 8 write-1s scans <= 8 write units, each of 8
    // write-0s scans <= 8*8+8 sub-slots.
    EXPECT_LE(r.fit_checks, 8u * 8u + 8u * (8u * 8u + 8u));
  }
}

// ----------------------------------------------------------- config file --
TEST(ConfigFile, ParsesKnownKeys) {
  std::istringstream in(R"(
# comment
pcm.t_set_ns = 860
pcm.chip_budget = 16
controller.drain = opportunistic
controller.write_pausing = true
sys.cores = 2
sys.instructions = 1234
fault.profile = light
fault.max_retries = 7
)");
  const harness::SystemConfig cfg = harness::parse_system_config(in);
  EXPECT_EQ(cfg.pcm.timing.t_set, ns(860));
  EXPECT_EQ(cfg.pcm.power.chip_budget, 16u);
  EXPECT_EQ(cfg.controller.drain,
            mem::ControllerConfig::DrainPolicy::kOpportunistic);
  EXPECT_TRUE(cfg.controller.write_pausing);
  EXPECT_EQ(cfg.cores, 2u);
  EXPECT_EQ(cfg.instructions_per_core, 1234u);
  // The preset replaces every fault field; a later key overrides one.
  const fault::FaultConfig light =
      fault::profile_config(fault::FaultProfile::kLight);
  EXPECT_EQ(cfg.fault.set_fail_prob, light.set_fail_prob);
  EXPECT_EQ(cfg.fault.brownout_period, light.brownout_period);
  EXPECT_EQ(cfg.fault.max_retries, 7u);
}

TEST(ConfigFile, UnknownKeyRejectedWithLineNumber) {
  std::istringstream in("pcm.warp_factor = 9\n");
  try {
    harness::parse_system_config(in);
    FAIL() << "should have thrown";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("warp_factor"), std::string::npos);
  }
}

TEST(ConfigFile, BadValueRejected) {
  for (const char* text :
       {"sys.cores = lots\n", "sys.cores = 4294967296\n", "sys.cores = 0\n",
        "sys.instructions = 0\n", "sys.seed = -1\n",
        "core.peak_ipc = fast\n", "pcm.gcp = maybe\n",
        "controller.drain = eager\n", "fault.profile = medium\n",
        "dram.capacity_mb = 0\n", "dram.capacity_mb = 0.1\n",
        "pcm.t_set_ns = 18446744073709552\n"}) {
    std::istringstream in(text);
    EXPECT_THROW(harness::parse_system_config(in), std::runtime_error)
        << text;
  }
}

std::string dump(const harness::SystemConfig& cfg) {
  std::ostringstream out;
  harness::write_system_config(cfg, out);
  return out.str();
}

harness::SystemConfig round_trip(const harness::SystemConfig& cfg) {
  std::istringstream in(dump(cfg));
  return harness::parse_system_config(in);
}

TEST(ConfigFile, RoundTrips) {
  harness::SystemConfig cfg;
  cfg.pcm.power.chip_budget = 64;
  cfg.controller.write_pausing = true;
  cfg.controller.wear_leveling = true;
  cfg.cores = 8;
  cfg.core.peak_ipc = 4.0;
  const harness::SystemConfig back = round_trip(cfg);
  EXPECT_EQ(back.pcm.power.chip_budget, 64u);
  EXPECT_TRUE(back.controller.write_pausing);
  EXPECT_TRUE(back.controller.wear_leveling);
  EXPECT_EQ(back.cores, 8u);
  EXPECT_DOUBLE_EQ(back.core.peak_ipc, 4.0);
  EXPECT_NE(dump(cfg).find("core.peak_ipc = 4\n"), std::string::npos);
}

// Every written key set off its default survives dump + parse exactly,
// including doubles that have no short decimal form.
TEST(ConfigFile, EveryKeyRoundTrips) {
  harness::SystemConfig cfg;
  cfg.pcm.timing.t_read = ns(60);
  cfg.pcm.timing.t_reset = ns(55);
  cfg.pcm.timing.t_set = ns(440);
  cfg.pcm.power.chip_budget = 24;
  cfg.pcm.power.reset_current_ratio_l = 3;
  cfg.pcm.power.global_charge_pump = false;
  cfg.pcm.geometry.chips_per_bank = 8;
  cfg.pcm.geometry.chip_write_bits = 8;
  cfg.pcm.geometry.cache_line_bytes = 128;
  cfg.pcm.geometry.banks = 16;
  cfg.pcm.geometry.subarrays_per_bank = 4;
  cfg.pcm.geometry.channels = 2;
  cfg.pcm.geometry.channel_interleave = pcm::ChannelInterleave::kBank;
  cfg.controller.read_queue_entries = 48;
  cfg.controller.write_queue_entries = 40;
  cfg.controller.drain = mem::ControllerConfig::DrainPolicy::kOpportunistic;
  cfg.controller.drain_low_watermark = 12;
  cfg.controller.write_coalescing = false;
  cfg.controller.read_forwarding = false;
  cfg.controller.write_pausing = true;
  cfg.controller.wear_leveling = true;
  cfg.controller.start_gap.gap_write_interval = 64;
  cfg.controller.start_gap.region_lines = 4096;
  cfg.controller.write_batch = 3;
  cfg.controller.palp.enabled = true;
  cfg.controller.palp.write_ways = 4;
  cfg.controller.palp.max_rww_reads = 1;
  cfg.dram.enabled = true;
  cfg.dram.capacity_bytes = 128 * 1024;
  cfg.dram.ways = 4;
  cfg.dram.policy = mem::DramPolicy::kMac;
  cfg.dram.t_row_hit = ns(12);
  cfg.dram.t_row_miss = ns(35);
  cfg.dram.row_lines = 32;
  cfg.dram.banks = 4;
  cfg.dram.pending_limit = 16;
  cfg.dram.mac_group = 2;
  cfg.encode.kind = encode::EncoderKind::kCoset;
  cfg.batch.max_lines = 4;
  cfg.core.clock_period = 400;
  cfg.core.peak_ipc = 2.0 / 3.0;
  cfg.core.mlp = 8;
  cfg.tetris.analysis_cycles = 30;
  cfg.tetris.forbid_self_overlap = true;
  cfg.fault.set_fail_prob = 1.0 / 3.0;
  cfg.fault.reset_fail_prob = 1e-7;
  cfg.fault.max_retries = 5;
  cfg.fault.retry_widening = 1.1;
  cfg.fault.retry_fail_damping = 0.3;
  cfg.fault.wear_knee = 64;
  cfg.fault.worn_fail_prob = 0.05;
  cfg.fault.stuck_bank = 3;
  cfg.fault.stuck_bank_prob = 0.25;
  cfg.fault.brownout_period = us(50);
  cfg.fault.brownout_duration = us(10);
  cfg.fault.brownout_budget_factor = 0.7;
  cfg.xbar_latency = ns(35);
  cfg.cores = 8;
  cfg.instructions_per_core = 12345;
  cfg.seed = 7;

  const harness::SystemConfig back = round_trip(cfg);
  EXPECT_EQ(harness::config_hash(back), harness::config_hash(cfg));
  EXPECT_EQ(dump(back), dump(cfg));
  EXPECT_EQ(back.core.peak_ipc, 2.0 / 3.0);
  EXPECT_EQ(back.fault.set_fail_prob, 1.0 / 3.0);

  // Each written line differs from the default dump: no key is left out.
  std::istringstream want(dump(harness::SystemConfig{}));
  std::istringstream got(dump(cfg));
  std::string a, b;
  std::getline(want, a);  // header comment
  std::getline(got, b);
  while (std::getline(want, a)) {
    ASSERT_TRUE(std::getline(got, b));
    EXPECT_EQ(a.substr(0, a.find('=')), b.substr(0, b.find('=')));
    EXPECT_NE(a, b) << "key left at its default";
  }
  EXPECT_FALSE(std::getline(got, b));
}

// A DRAM tier smaller than 1 MB (perfbench's tiered_palp tier) keeps its
// exact byte count through the MB-valued key.
TEST(ConfigFile, SubMegabyteDramCapacityRoundTrips) {
  harness::SystemConfig cfg;
  cfg.dram.enabled = true;
  cfg.dram.capacity_bytes = 128 * 1024;
  cfg.dram.policy = mem::DramPolicy::kMac;
  EXPECT_NE(dump(cfg).find("dram.capacity_mb = 0.125\n"), std::string::npos);
  const harness::SystemConfig back = round_trip(cfg);
  EXPECT_EQ(back.dram.capacity_bytes, 131072u);
  EXPECT_EQ(harness::config_hash(back), harness::config_hash(cfg));
  std::istringstream one_byte("dram.capacity_mb = 0.00000095367431640625\n");
  EXPECT_EQ(harness::parse_system_config(one_byte).dram.capacity_bytes, 1u);
}

TEST(ConfigFile, MissingFileThrows) {
  EXPECT_THROW(harness::load_system_config("/no/such/file.cfg"),
               std::runtime_error);
}

}  // namespace
}  // namespace tw

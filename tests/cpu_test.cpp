// Unit tests for the bounded-MLP core model and multi-core wrapper.

#include <gtest/gtest.h>

#include "tw/core/factory.hpp"
#include "tw/cpu/multicore.hpp"
#include "tw/harness/experiment.hpp"
#include "tw/mem/memory_system.hpp"
#include "tw/workload/generator.hpp"

namespace tw::cpu {
namespace {

struct SystemFixture {
  sim::Simulator sim;
  stats::Registry reg;
  std::unique_ptr<schemes::WriteScheme> scheme;
  std::unique_ptr<mem::Controller> ctl;
  std::unique_ptr<workload::TraceGenerator> gen;
  std::unique_ptr<MultiCore> cpus;

  SystemFixture(const char* workload, u32 cores, u64 budget,
                schemes::SchemeKind kind = schemes::SchemeKind::kDcw,
                mem::ControllerConfig ccfg = {}) {
    const pcm::PcmConfig pcfg = pcm::table2_config();
    scheme = core::make_scheme(kind, pcfg);
    ctl = std::make_unique<mem::Controller>(sim, pcfg, ccfg, *scheme, reg);
    gen = std::make_unique<workload::TraceGenerator>(
        workload::profile_by_name(workload), pcfg.geometry, cores, 1234);
    cpus = std::make_unique<MultiCore>(sim, CoreConfig{}, cores, *ctl,
                                       *gen, budget);
  }

  void run(Tick limit = kTickMax) {
    cpus->start();
    sim.run(limit);
  }
};

TEST(Core, RetiresExactBudgetOrSlightlyMore) {
  SystemFixture f("blackscholes", 1, 10'000);
  f.run();
  ASSERT_TRUE(f.cpus->all_finished());
  const u64 retired = f.cpus->core(0).retired();
  // Retirement quantum is (gap + 1), so overshoot is at most one gap.
  EXPECT_GE(retired, 10'000u);
  EXPECT_LT(retired, 10'000u + 60'000u);
}

TEST(Core, IpcBoundedByPeak) {
  SystemFixture f("blackscholes", 1, 20'000);
  f.run();
  ASSERT_TRUE(f.cpus->all_finished());
  EXPECT_GT(f.cpus->core(0).ipc(), 0.0);
  EXPECT_LE(f.cpus->core(0).ipc(), CoreConfig{}.peak_ipc + 1e-9);
}

TEST(Core, MemoryBoundWorkloadStalls) {
  // vips (4.12 ops/kilo, write-heavy) under the slow DCW baseline must
  // run far below peak IPC; blackscholes (0.06 ops/kilo) near peak.
  SystemFixture heavy("vips", 2, 20'000);
  heavy.run();
  ASSERT_TRUE(heavy.cpus->all_finished());
  SystemFixture light("blackscholes", 2, 20'000);
  light.run();
  ASSERT_TRUE(light.cpus->all_finished());
  EXPECT_LT(heavy.cpus->aggregate_ipc(),
            0.5 * light.cpus->aggregate_ipc());
  EXPECT_GT(heavy.cpus->core(0).stall_events() +
                heavy.cpus->core(1).stall_events(),
            0u);
}

TEST(Core, ReadsAndWritesReachTheController) {
  SystemFixture f("ferret", 1, 30'000);
  f.run();
  ASSERT_TRUE(f.cpus->all_finished());
  EXPECT_GT(f.cpus->core(0).reads_issued(), 0u);
  EXPECT_GT(f.cpus->core(0).writes_issued(), 0u);
  EXPECT_EQ(f.reg.counter("mem.reads").value(),
            f.cpus->core(0).reads_issued());
}

TEST(MultiCore, RuntimeIsMaxOfCores) {
  SystemFixture f("canneal", 4, 10'000);
  f.run();
  ASSERT_TRUE(f.cpus->all_finished());
  Tick max_finish = 0;
  for (u32 c = 0; c < 4; ++c) {
    max_finish = std::max(max_finish, f.cpus->core(c).finish_tick());
  }
  EXPECT_EQ(f.cpus->runtime(), max_finish);
  EXPECT_GT(f.cpus->runtime(), 0u);
}

TEST(MultiCore, FasterSchemeFinishesSooner) {
  SystemFixture slow("vips", 2, 15'000, schemes::SchemeKind::kDcw);
  slow.run();
  SystemFixture fast("vips", 2, 15'000, schemes::SchemeKind::kTetris);
  fast.run();
  ASSERT_TRUE(slow.cpus->all_finished());
  ASSERT_TRUE(fast.cpus->all_finished());
  EXPECT_LT(fast.cpus->runtime(), slow.cpus->runtime());
  EXPECT_GT(fast.cpus->aggregate_ipc(), slow.cpus->aggregate_ipc());
}

TEST(MultiCore, DeterministicAcrossRuns) {
  SystemFixture a("dedup", 2, 10'000);
  a.run();
  SystemFixture b("dedup", 2, 10'000);
  b.run();
  EXPECT_EQ(a.cpus->runtime(), b.cpus->runtime());
  EXPECT_EQ(a.reg.counter("mem.writes").value(),
            b.reg.counter("mem.writes").value());
}

TEST(MultiCore, AggregateIpcSumsCores) {
  SystemFixture f("blackscholes", 4, 10'000);
  f.run();
  ASSERT_TRUE(f.cpus->all_finished());
  // Four unstalled cores should reach ~4x the single-core IPC.
  EXPECT_GT(f.cpus->aggregate_ipc(), 0.8 * 4.0 * 1.0);
}

// Counts payload syntheses on the way through to the real generator.
class CountingSource : public workload::RequestSource {
 public:
  explicit CountingSource(workload::RequestSource& inner) : inner_(inner) {}
  workload::TraceOp next(u32 core) override { return inner_.next(core); }
  pcm::LogicalLine make_write_data(Addr addr, mem::DataStore& store,
                                   u32 core) override {
    ++synth_calls;
    return inner_.make_write_data(addr, store, core);
  }
  u64 synth_calls = 0;

 private:
  workload::RequestSource& inner_;
};

// Counts refused write enqueues on the way through to the memory system.
class RefusalCounter : public mem::MemoryInterface {
 public:
  explicit RefusalCounter(mem::MemoryInterface& inner) : inner_(inner) {}
  bool enqueue(mem::MemoryRequest req) override {
    const bool write = req.type == mem::ReqType::kWrite;
    const bool ok = inner_.enqueue(std::move(req));
    if (write && !ok) ++refused_writes;
    return ok;
  }
  void set_read_callback(ReadCallback cb) override {
    inner_.set_read_callback(std::move(cb));
  }
  void set_write_callback(WriteCallback cb) override {
    inner_.set_write_callback(std::move(cb));
  }
  void set_space_callback(SpaceCallback cb) override {
    inner_.set_space_callback(std::move(cb));
  }
  bool idle() const override { return inner_.idle(); }
  mem::DataStore& store_for(Addr addr) override {
    return inner_.store_for(addr);
  }
  u64 refused_writes = 0;

 private:
  mem::MemoryInterface& inner_;
};

class SynthesizeOnce : public ::testing::TestWithParam<u32> {};

TEST_P(SynthesizeOnce, RefusedWritesReofferTheSamePayload) {
  // Many write-heavy cores against a tiny write queue: most write
  // attempts are refused, and each refusal must leave the data stream
  // untouched (one synthesis per issued write).
  constexpr u32 kCores = 16;
  pcm::PcmConfig pc = pcm::table2_config();
  pc.geometry.channels = GetParam();
  mem::ControllerConfig cc;
  cc.write_queue_entries = 4;
  cc.drain_low_watermark = 1;
  sim::Simulator front;
  stats::Registry reg;
  const mem::SchemeFactory factory = [&](u32) {
    return core::make_scheme(schemes::SchemeKind::kDcw, pc);
  };
  const workload::WorkloadProfile& profile =
      workload::profile_by_name("vips");
  mem::MemorySystem msys(front, pc, cc, factory, reg, fault::FaultConfig{},
                         /*seed=*/42, profile.initial_ones_fraction,
                         /*xbar_latency=*/ns(20), 0);
  RefusalCounter mem(msys);
  workload::TraceGenerator gen(profile, pc.geometry, kCores, 7);
  CountingSource src(gen);
  MultiCore cpus(front, CoreConfig{}, kCores, mem, src, 20'000);
  cpus.start();
  msys.run(ms(1000));

  ASSERT_TRUE(cpus.all_finished());
  u64 writes = 0;
  for (u32 c = 0; c < kCores; ++c) writes += cpus.core(c).writes_issued();
  EXPECT_GT(mem.refused_writes, writes) << "backpressure too light";
  EXPECT_EQ(src.synth_calls, writes);
}

INSTANTIATE_TEST_SUITE_P(Channels, SynthesizeOnce, ::testing::Values(1u, 4u));

TEST(Core, StartTwiceRejected) {
  SystemFixture f("blackscholes", 1, 1'000);
  f.cpus->start();
  f.sim.run();
  EXPECT_THROW(f.cpus->start(), ContractViolation);
}

}  // namespace
}  // namespace tw::cpu

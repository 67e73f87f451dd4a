// Unit tests for tw/mem: address map, data store and its wear ledger,
// and the FRFCFS controller (queueing, drain policy, forwarding, coalescing).

#include <gtest/gtest.h>

#include "tw/common/rng.hpp"
#include "tw/core/factory.hpp"
#include "tw/mem/controller.hpp"
#include "tw/sim/simulator.hpp"

namespace tw::mem {
namespace {

pcm::PcmConfig cfg() { return pcm::table2_config(); }

pcm::LogicalLine make_data(u64 word) {
  pcm::LogicalLine d(8);
  for (u32 i = 0; i < 8; ++i) d.set_word(i, word);
  return d;
}

MemoryRequest read_req(Addr addr, u32 core = 0) {
  MemoryRequest r;
  r.addr = addr;
  r.type = ReqType::kRead;
  r.core = core;
  return r;
}

MemoryRequest write_req(Addr addr, u64 word, u32 core = 0) {
  MemoryRequest r;
  r.addr = addr;
  r.type = ReqType::kWrite;
  r.core = core;
  r.data = make_data(word);
  return r;
}

// ---------------------------------------------------------- address map --
TEST(AddressMap, LineAlignment) {
  const AddressMap m(cfg().geometry);
  EXPECT_EQ(m.line_of(0x1234), 0x1200u);
  EXPECT_EQ(m.line_of(0x1240), 0x1240u);
  EXPECT_EQ(m.line_index(0x1240), 0x49u);
}

TEST(AddressMap, ConsecutiveLinesInterleaveBanks) {
  const AddressMap m(cfg().geometry);
  for (u32 i = 0; i < 16; ++i) {
    EXPECT_EQ(m.flat_bank(i * 64), i % 8);
  }
  EXPECT_EQ(m.total_banks(), 8u);
}

TEST(AddressMap, RowAdvancesAfterAllBanks) {
  const AddressMap m(cfg().geometry);
  EXPECT_EQ(m.decode(0).row, 0u);
  EXPECT_EQ(m.decode(8 * 64).row, 1u);
}

// ------------------------------------------------------------ data store --
TEST(DataStore, DeterministicFirstTouch) {
  DataStore a(8, 42), b(8, 42);
  EXPECT_EQ(a.line(0x1000), b.line(0x1000));
  DataStore c(8, 43);
  EXPECT_FALSE(a.line(0x1000) == c.line(0x1000));
}

TEST(DataStore, MaterializationIsSticky) {
  DataStore s(8, 1);
  s.line(0x40).set_cell(0, 0xDEAD);
  EXPECT_EQ(s.line(0x40).cell(0), 0xDEADu);
  EXPECT_EQ(s.lines_touched(), 1u);
}

TEST(DataStore, OnesBiasShapesContent) {
  DataStore rich(8, 9, 0.8), poor(8, 9, 0.2);
  u32 ones_rich = 0, ones_poor = 0;
  for (Addr a = 0; a < 64 * 100; a += 64) {
    for (u32 i = 0; i < 8; ++i) {
      ones_rich += popcount(rich.line(a).cell(i));
      ones_poor += popcount(poor.line(a).cell(i));
    }
  }
  const double total = 100.0 * 8 * 64;
  EXPECT_NEAR(ones_rich / total, 0.8, 0.02);
  EXPECT_NEAR(ones_poor / total, 0.2, 0.02);
}

TEST(DataStore, LogicalViewHonorsTags) {
  DataStore s(8, 1);
  s.line(0).store_logical(0, 0x77, /*flipped=*/true);
  EXPECT_EQ(s.read_logical(0).word(0), 0x77u);
}

// ----------------------------------------------------------------- wear --
// The wear ledger lives in the store's line slots.
TEST(Wear, TracksPerLine) {
  DataStore d(8, 1);
  d.slot(0x1000).record(BitTransitions{5, 3});
  d.slot(0x1000).record(BitTransitions{2, 0});
  d.slot(0x2000).record(BitTransitions{1, 1});
  EXPECT_EQ(d.wear(0x1000).writes, 2u);
  EXPECT_EQ(d.wear(0x1000).bits_programmed, 10u);
  EXPECT_EQ(d.wear(0x3000).writes, 0u);

  const pcm::WearSummary s = d.wear_summary();
  EXPECT_EQ(s.lines_touched, 2u);
  EXPECT_EQ(s.total_writes, 3u);
  EXPECT_EQ(s.total_bits, 12u);
  EXPECT_EQ(s.max_line_bits, 10u);
  EXPECT_DOUBLE_EQ(s.avg_bits_per_write, 4.0);
}

TEST(Wear, LifetimeProjection) {
  DataStore d(8, 1);
  // Hot line: 100 writes x 50 bits over 1 simulated second.
  for (int i = 0; i < 100; ++i) d.slot(0x0).record(BitTransitions{30, 20});
  const pcm::LifetimeEstimate e =
      pcm::estimate_lifetime(d.wear_summary(), /*sim_seconds=*/1.0,
                             /*cell_endurance=*/1e8, /*bits_per_line=*/512);
  // Worst cell: 5000 bits / 512 cells ~ 9.77 pulses/s.
  EXPECT_NEAR(e.worst_cell_pulses_per_second, 5000.0 / 512.0, 1e-9);
  EXPECT_NEAR(e.lifetime_seconds, 1e8 / (5000.0 / 512.0), 1.0);
  EXPECT_NEAR(e.lifetime_years,
              e.lifetime_seconds / (365.25 * 24 * 3600), 1e-9);
}

TEST(Wear, LifetimeDegenerateInputs) {
  DataStore d(8, 1);
  EXPECT_DOUBLE_EQ(
      pcm::estimate_lifetime(d.wear_summary(), 1.0).lifetime_seconds, 0.0);
  d.slot(0).record(BitTransitions{1, 0});
  EXPECT_DOUBLE_EQ(
      pcm::estimate_lifetime(d.wear_summary(), 0.0).lifetime_seconds, 0.0);
}

TEST(Wear, RetryAccruesBitsButNoWrite) {
  DataStore d(8, 1);
  LineSlot& s = d.slot(0x40);
  s.record(BitTransitions{4, 4});
  s.record_retry(BitTransitions{2, 0});
  EXPECT_EQ(d.wear(0x40).writes, 1u);
  EXPECT_EQ(d.wear(0x40).bits_programmed, 10u);
  EXPECT_DOUBLE_EQ(d.wear_summary().avg_bits_per_write, 10.0);
}

TEST(Wear, ReadOnlyLineIsNotTouched) {
  DataStore d(8, 1);
  (void)d.read_logical(0x40);  // materialized by a read only
  d.slot(0x80).record(BitTransitions{1, 1});
  EXPECT_EQ(d.lines_touched(), 2u);
  const pcm::WearSummary s = d.wear_summary();
  EXPECT_EQ(s.lines_touched, 1u);
  EXPECT_EQ(s.total_writes, 1u);
}

TEST(Wear, ReadingUntouchedWearDoesNotMaterialize) {
  DataStore d(8, 1);
  d.slot(0x40).record(BitTransitions{1, 0});
  const std::size_t before = d.lines_touched();
  EXPECT_EQ(d.wear(0x1000).writes, 0u);
  EXPECT_EQ(d.wear(0x1000).bits_programmed, 0u);
  EXPECT_EQ(WearView(d).line(0x2000).writes, 0u);
  EXPECT_EQ(d.lines_touched(), before);
  EXPECT_FALSE(d.touched(0x1000));
  EXPECT_FALSE(d.touched(0x2000));
}

// ------------------------------------------------------------ controller --
struct ControllerFixture {
  sim::Simulator sim;
  stats::Registry reg;
  std::unique_ptr<schemes::WriteScheme> scheme;
  std::unique_ptr<Controller> ctl;

  explicit ControllerFixture(
      ControllerConfig c = {},
      schemes::SchemeKind kind = schemes::SchemeKind::kDcw) {
    scheme = core::make_scheme(kind, cfg());
    ctl = std::make_unique<Controller>(sim, cfg(), c, *scheme, reg);
  }
};

TEST(Controller, ReadCompletesWithFixedLatency) {
  ControllerFixture f;
  Tick done = 0;
  f.ctl->set_read_callback(
      [&](const MemoryRequest& r) { done = r.complete_tick; });
  ASSERT_TRUE(f.ctl->enqueue(read_req(0x40)));
  f.sim.run();
  EXPECT_EQ(done, ns(50) + ns(8));  // Tread + bus
  EXPECT_EQ(f.reg.counter("mem.reads").value(), 1u);
  EXPECT_TRUE(f.ctl->idle());
}

TEST(Controller, ReadsToDifferentBanksOverlap) {
  ControllerFixture f;
  int completed = 0;
  Tick last = 0;
  f.ctl->set_read_callback([&](const MemoryRequest& r) {
    ++completed;
    last = r.complete_tick;
  });
  // Lines 0 and 1 map to banks 0 and 1: full overlap.
  ASSERT_TRUE(f.ctl->enqueue(read_req(0 * 64)));
  ASSERT_TRUE(f.ctl->enqueue(read_req(1 * 64)));
  f.sim.run();
  EXPECT_EQ(completed, 2);
  EXPECT_EQ(last, ns(58));
}

TEST(Controller, ReadsToSameBankSerialize) {
  ControllerFixture f;
  Tick last = 0;
  f.ctl->set_read_callback(
      [&](const MemoryRequest& r) { last = r.complete_tick; });
  ASSERT_TRUE(f.ctl->enqueue(read_req(0)));
  ASSERT_TRUE(f.ctl->enqueue(read_req(8 * 64)));  // same bank 0
  f.sim.run();
  EXPECT_EQ(last, 2 * ns(58));
}

TEST(Controller, StrictDrainHoldsWritesUntilFull) {
  ControllerConfig c;
  c.write_queue_entries = 4;
  c.drain_low_watermark = 1;
  ControllerFixture f(c);
  int write_done = 0;
  f.ctl->set_write_callback([&](const MemoryRequest&) { ++write_done; });

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(f.ctl->enqueue(write_req((i + 10) * 64, i)));
  }
  f.sim.run();
  EXPECT_EQ(write_done, 0);  // queue not full: nothing issued
  EXPECT_EQ(f.ctl->write_queue_depth(), 3u);

  ASSERT_TRUE(f.ctl->enqueue(write_req(13 * 64, 9)));  // fills the queue
  f.sim.run();
  EXPECT_GE(write_done, 3);  // drained to the low watermark (or below)
}

TEST(Controller, OpportunisticDrainIssuesWhenIdle) {
  ControllerConfig c;
  c.drain = ControllerConfig::DrainPolicy::kOpportunistic;
  ControllerFixture f(c);
  int write_done = 0;
  f.ctl->set_write_callback([&](const MemoryRequest&) { ++write_done; });
  ASSERT_TRUE(f.ctl->enqueue(write_req(0x40, 1)));
  f.sim.run();
  EXPECT_EQ(write_done, 1);
}

TEST(Controller, WriteQueueBackpressure) {
  ControllerConfig c;
  c.write_queue_entries = 2;
  c.drain_low_watermark = 1;
  c.write_coalescing = false;
  ControllerFixture f(c);
  ASSERT_TRUE(f.ctl->enqueue(write_req(1 * 64, 1)));
  // Fill -> triggers drain, but until dispatch runs the queue is full.
  ASSERT_TRUE(f.ctl->enqueue(write_req(2 * 64, 2)));
  EXPECT_FALSE(f.ctl->enqueue(write_req(3 * 64, 3)));
  f.sim.run();
  // After draining there is room again.
  EXPECT_TRUE(f.ctl->enqueue(write_req(3 * 64, 3)));
}

TEST(Controller, WriteCoalescingMergesSameLine) {
  ControllerConfig c;
  ControllerFixture f(c, schemes::SchemeKind::kDcw);
  ASSERT_TRUE(f.ctl->enqueue(write_req(0x80, 1)));
  ASSERT_TRUE(f.ctl->enqueue(write_req(0x80, 2)));
  EXPECT_EQ(f.ctl->write_queue_depth(), 1u);
  EXPECT_EQ(f.reg.counter("mem.writes_coalesced").value(), 1u);
}

TEST(Controller, ReadForwardingFromWriteQueue) {
  ControllerFixture f;
  Tick done = 0;
  f.ctl->set_read_callback(
      [&](const MemoryRequest& r) { done = r.complete_tick; });
  ASSERT_TRUE(f.ctl->enqueue(write_req(0x100, 0xAB)));
  ASSERT_TRUE(f.ctl->enqueue(read_req(0x100)));
  f.sim.run();
  EXPECT_EQ(done, ns(5));  // forward latency, not array read
  EXPECT_EQ(f.reg.counter("mem.reads_forwarded").value(), 1u);
}

TEST(Controller, WriteUpdatesStoredData) {
  ControllerConfig c;
  c.drain = ControllerConfig::DrainPolicy::kOpportunistic;
  ControllerFixture f(c);
  ASSERT_TRUE(f.ctl->enqueue(write_req(0x40, 0x1234)));
  f.sim.run();
  EXPECT_EQ(f.ctl->store().read_logical(0x40).word(0), 0x1234u);
  EXPECT_EQ(f.reg.counter("mem.writes").value(), 1u);
}

TEST(Controller, ReadsPreemptQueuedWork) {
  // A read arriving while a bank serves a long write waits for that bank,
  // but reads to other banks proceed immediately.
  ControllerConfig c;
  c.drain = ControllerConfig::DrainPolicy::kOpportunistic;
  ControllerFixture f(c);
  std::vector<Tick> read_done;
  f.ctl->set_read_callback(
      [&](const MemoryRequest& r) { read_done.push_back(r.complete_tick); });

  ASSERT_TRUE(f.ctl->enqueue(write_req(0 * 64, 7)));  // bank 0, ~3.5 us
  f.sim.run(ns(100));  // let the write start
  ASSERT_TRUE(f.ctl->enqueue(read_req(0 * 64)));      // bank 0: blocked
  ASSERT_TRUE(f.ctl->enqueue(read_req(1 * 64)));      // bank 1: free
  f.sim.run();
  ASSERT_EQ(read_done.size(), 2u);
  // Bank-1 read finished long before the bank-0 read.
  EXPECT_LT(read_done[0], ns(500));
  EXPECT_GT(read_done[1], ns(3000));
}

TEST(Controller, EnergyAndWearAccounted) {
  ControllerConfig c;
  c.drain = ControllerConfig::DrainPolicy::kOpportunistic;
  ControllerFixture f(c);
  ASSERT_TRUE(f.ctl->enqueue(write_req(0x40, 0xFFFF)));
  f.sim.run();
  EXPECT_GT(f.ctl->energy().write_energy_pj(), 0.0);
  EXPECT_EQ(f.ctl->wear().summary().total_writes, 1u);
}

TEST(Controller, SpaceCallbackFires) {
  ControllerConfig c;
  c.write_queue_entries = 2;
  c.drain_low_watermark = 1;
  c.write_coalescing = false;
  ControllerFixture f(c);
  int space_events = 0;
  f.ctl->set_space_callback([&] { ++space_events; });
  ASSERT_TRUE(f.ctl->enqueue(write_req(1 * 64, 1)));
  ASSERT_TRUE(f.ctl->enqueue(write_req(2 * 64, 2)));
  f.sim.run();
  EXPECT_GT(space_events, 0);
}

TEST(Controller, WriteLatencyIncludesQueueing) {
  ControllerConfig c;
  c.write_queue_entries = 2;
  c.drain_low_watermark = 0;
  c.write_coalescing = false;
  ControllerFixture f(c);
  ASSERT_TRUE(f.ctl->enqueue(write_req(0 * 64, 1)));   // same bank 0
  ASSERT_TRUE(f.ctl->enqueue(write_req(8 * 64, 2)));   // same bank 0
  f.sim.run();
  // Second write waited for the first's full service.
  const auto& acc = f.reg.accumulator("mem.write_latency_ns");
  EXPECT_EQ(acc.count(), 2u);
  EXPECT_GT(acc.max(), 2 * 3000.0);
}

TEST(Controller, BankBusyTimeBoundedByWallClock) {
  // Conservation: a bank can never be busy longer than the simulation ran.
  ControllerConfig c;
  c.drain = ControllerConfig::DrainPolicy::kOpportunistic;
  ControllerFixture f(c);
  Rng rng(5);
  for (int i = 0; i < 60; ++i) {
    if (rng.chance(0.5)) {
      f.ctl->enqueue(read_req(rng.below(256) * 64));
    } else {
      f.ctl->enqueue(write_req(rng.below(256) * 64, rng.next()));
    }
    f.sim.run();
  }
  const Tick wall = f.sim.now();
  for (const auto& b : f.ctl->banks()) {
    EXPECT_LE(b.busy_total(), wall);
  }
  for (const auto& sa : f.ctl->subarrays()) {
    EXPECT_LE(sa.busy_total(), wall);
  }
}

TEST(Controller, PerBankReadsStayFifo) {
  // Oldest-first: two reads to the same bank complete in enqueue order.
  ControllerFixture f;
  std::vector<u64> completion_ids;
  f.ctl->set_read_callback(
      [&](const MemoryRequest& r) { completion_ids.push_back(r.id); });
  ASSERT_TRUE(f.ctl->enqueue(read_req(0 * 64)));
  ASSERT_TRUE(f.ctl->enqueue(read_req(8 * 64)));
  ASSERT_TRUE(f.ctl->enqueue(read_req(16 * 64)));
  f.sim.run();
  ASSERT_EQ(completion_ids.size(), 3u);
  EXPECT_LT(completion_ids[0], completion_ids[1]);
  EXPECT_LT(completion_ids[1], completion_ids[2]);
}

TEST(Controller, EveryAcceptedRequestCompletes) {
  // No request is ever lost: accepted reads + issued writes all complete.
  ControllerConfig c;
  c.drain = ControllerConfig::DrainPolicy::kOpportunistic;
  c.write_coalescing = false;
  c.read_forwarding = false;
  ControllerFixture f(c);
  u64 reads_done = 0, writes_done = 0, reads_in = 0, writes_in = 0;
  f.ctl->set_read_callback([&](const MemoryRequest&) { ++reads_done; });
  f.ctl->set_write_callback([&](const MemoryRequest&) { ++writes_done; });
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    if (rng.chance(0.6)) {
      reads_in += f.ctl->enqueue(read_req(rng.below(512) * 64));
    } else {
      writes_in +=
          f.ctl->enqueue(write_req(rng.below(512) * 64, rng.next()));
    }
    if (i % 7 == 0) f.sim.run();
  }
  f.sim.run();
  EXPECT_EQ(reads_done, reads_in);
  EXPECT_EQ(writes_done, writes_in);
  EXPECT_TRUE(f.ctl->idle());
}

}  // namespace
}  // namespace tw::mem

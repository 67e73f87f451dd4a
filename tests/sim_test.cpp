// Unit tests for the event-driven simulation kernel.

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "tw/common/assert.hpp"
#include "tw/common/rng.hpp"
#include "tw/sim/simulator.hpp"

namespace tw::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(Simulator, SameTickPriorityOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(5, [&] { order.push_back(2); }, Priority::kCpu);
  sim.schedule_at(5, [&] { order.push_back(1); },
                  Priority::kDeviceComplete);
  sim.schedule_at(5, [&] { order.push_back(3); }, Priority::kDefault);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, SameTickSamePriorityFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(7, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, CallbackSchedulesMore) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) sim.schedule_in(10, chain);
  };
  sim.schedule_at(0, chain);
  sim.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.now(), 40u);
}

TEST(Simulator, RunWithLimitStopsAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(100, [&] { ++fired; });
  const u64 n = sim.run(50);
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50u);  // advanced to the limit
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, SchedulingInPastThrows) {
  Simulator sim;
  sim.schedule_at(10, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5, [] {}), ContractViolation);
}

TEST(Simulator, NullCallbackThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_at(0, nullptr), ContractViolation);
}

TEST(Simulator, ZeroDelayEventRunsAtCurrentTick) {
  Simulator sim;
  Tick seen = kTickMax;
  sim.schedule_at(25, [&] {
    sim.schedule_in(0, [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, 25u);
}

// ------------------------------------------------------- differential --
// Seeded random schedules run on the kernel and on a reference that fires
// the earliest pending event by (tick, priority, insertion order). An
// event's children (count, delay, priority) derive from its id alone, and
// ids are handed out in scheduling order, so the two sides create the
// same events exactly when they fire in the same order.

struct RefEvent {
  Tick tick;
  u64 prio;
  u64 seq;
  u64 id;
};

struct Fired {
  Tick tick;
  u64 id;
  bool operator==(const Fired&) const = default;
};

/// 0, a few colliding ticks, up to 2 µs, or up to 3 ms.
Tick random_delay(SplitMix64& r) {
  switch (r.next() % 4) {
    case 0: return 0;
    case 1: return (r.next() % 8) * 64;
    case 2: return r.next() % 2'000'000;
    default: return (r.next() % 3'000) * 1'000'000;
  }
}

Priority random_prio(SplitMix64& r) {
  return static_cast<Priority>(r.next() % 4);
}

class KernelDiff {
 public:
  explicit KernelDiff(u64 seed) : seed_(seed), drive_(seed) {}

  void run_and_compare() {
    for (int stop = 0; stop < 400; ++stop) {
      // Events scheduled from outside a callback, some at the current tick.
      for (u64 k = drive_.next() % 4; k > 0; --k) {
        const Tick delay = random_delay(drive_);
        const Priority prio = random_prio(drive_);
        sim_schedule(delay, prio);
        ref_schedule(delay, prio);
      }
      const Tick now = sim_.now();
      Tick limit = now;
      switch (drive_.next() % 5) {
        case 0: break;  // only what is due at the current tick
        case 1: limit = now == 0 ? 0 : now - 1; break;  // behind the clock
        case 2: limit += drive_.next() % 5'000; break;
        case 3: limit += drive_.next() % 2'000'000; break;
        default: limit += drive_.next() % 5'000'000'000; break;
      }
      const u64 fired = sim_.run(limit);
      ASSERT_EQ(fired, ref_run(limit)) << "stop " << stop;
      ASSERT_EQ(sim_log_, ref_log_) << "stop " << stop;
      ASSERT_EQ(sim_.now(), ref_now_) << "stop " << stop;
      ASSERT_EQ(sim_.pending(), ref_pending_.size()) << "stop " << stop;
      ASSERT_EQ(sim_.next_tick(), ref_next_tick()) << "stop " << stop;
    }
    sim_.run();
    ref_run(kTickMax);
    EXPECT_EQ(sim_log_, ref_log_);
    EXPECT_EQ(sim_.pending(), 0u);
    EXPECT_EQ(sim_.next_tick(), kTickMax);
    EXPECT_GT(sim_log_.size(), kBudget / 2);
  }

 private:
  static constexpr u64 kBudget = 20'000;  ///< events created per side

  /// Children of event `id`: up to two, each a (delay, priority) draw.
  template <class Schedule>
  void spawn_children(u64 id, Schedule schedule) {
    SplitMix64 r(seed_ ^ (id * 0x9E3779B97F4A7C15ull));
    for (u64 k = r.next() % 3; k > 0; --k) {
      const Tick delay = random_delay(r);
      schedule(delay, random_prio(r));
    }
  }

  void sim_schedule(Tick delay, Priority prio) {
    if (sim_ids_ == kBudget) return;
    const u64 id = sim_ids_++;
    sim_.schedule_in(
        delay,
        [this, id] {
          sim_log_.push_back({sim_.now(), id});
          spawn_children(id, [this](Tick d, Priority p) {
            sim_schedule(d, p);
          });
        },
        prio);
  }

  void ref_schedule(Tick delay, Priority prio) {
    if (ref_ids_ == kBudget) return;
    ref_pending_.push_back(
        {ref_now_ + delay, static_cast<u64>(prio), ref_seq_++, ref_ids_++});
  }

  std::vector<RefEvent>::iterator ref_earliest() {
    return std::min_element(ref_pending_.begin(), ref_pending_.end(),
                            [](const RefEvent& a, const RefEvent& b) {
                              return std::tie(a.tick, a.prio, a.seq) <
                                     std::tie(b.tick, b.prio, b.seq);
                            });
  }

  Tick ref_next_tick() {
    return ref_pending_.empty() ? kTickMax : ref_earliest()->tick;
  }

  u64 ref_run(Tick limit) {
    u64 fired = 0;
    while (!ref_pending_.empty()) {
      const auto it = ref_earliest();
      if (it->tick > limit) break;
      const RefEvent e = *it;
      ref_pending_.erase(it);
      ref_now_ = e.tick;
      ref_log_.push_back({e.tick, e.id});
      ++fired;
      spawn_children(e.id, [this](Tick d, Priority p) { ref_schedule(d, p); });
    }
    if (limit != kTickMax && ref_now_ < limit) ref_now_ = limit;
    return fired;
  }

  u64 seed_;
  SplitMix64 drive_;  ///< stop sizes and outside schedules

  Simulator sim_;
  u64 sim_ids_ = 0;
  std::vector<Fired> sim_log_;

  Tick ref_now_ = 0;
  u64 ref_seq_ = 0;
  u64 ref_ids_ = 0;
  std::vector<RefEvent> ref_pending_;
  std::vector<Fired> ref_log_;
};

TEST(Simulator, MatchesSortedReferenceOnRandomSchedules) {
  for (u64 seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    KernelDiff(seed).run_and_compare();
  }
}

// ----------------------------------------------------------------- clock --
TEST(Clock, TwoGigahertz) {
  Clock c(500);  // 500 ps
  EXPECT_DOUBLE_EQ(c.freq_ghz(), 2.0);
  EXPECT_EQ(c.cycles(4), 2000u);
  EXPECT_EQ(c.cycles_at(1999), 3u);
  EXPECT_EQ(c.cycles_at(2000), 4u);
  EXPECT_EQ(c.tick_of(4), 2000u);
}

TEST(Clock, NextEdge) {
  Clock c(400);  // 2.5 GHz
  EXPECT_EQ(c.next_edge(0), 0u);
  EXPECT_EQ(c.next_edge(1), 400u);
  EXPECT_EQ(c.next_edge(400), 400u);
  EXPECT_EQ(c.next_edge(401), 800u);
}

TEST(Clock, MemoryBusClock400MHz) {
  Clock c(2500);  // the paper's 400 MHz analysis clock
  EXPECT_DOUBLE_EQ(c.freq_ghz(), 0.4);
  EXPECT_EQ(c.cycles(41), 102'500u);  // 41-cycle analysis = 102.5 ns
}

}  // namespace
}  // namespace tw::sim

#pragma once
// Event-driven simulation kernel (the NVMain/gem5 stand-in's heart).
//
// Deterministic: events at the same tick fire in (priority, insertion order)
// sequence. Callbacks may schedule further events. Single-threaded by
// design — cross-experiment parallelism happens at the harness level.
//
// The kernel is allocation-free in steady state:
//
//   * callbacks are small-buffer inline functions (capture ≤ 48 B,
//     enforced at compile time — a too-large capture is a build error,
//     never a silent heap allocation);
//   * events live in pooled nodes recycled through a free list, so a
//     callback runs in place while it schedules more;
//   * the pending set is a binary min-heap of (tick, order, node) entries
//     plus a "now lane": a short vector, sorted by order, of the events
//     scheduled for the current tick, so zero-delay events (common in
//     full-system runs) skip the heap's sift.
//
// Ordering guarantee: events fire in strictly increasing
// (tick, priority, insertion-sequence) order — same-tick ties break by
// priority, then FIFO.

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "tw/common/assert.hpp"
#include "tw/common/inline_function.hpp"
#include "tw/common/types.hpp"

namespace tw::sim {

/// Scheduling priority for events at the same tick; lower runs first.
enum class Priority : u8 {
  kDeviceComplete = 0,  ///< device/bank completions
  kController = 1,      ///< memory-controller scheduling decisions
  kCpu = 2,             ///< CPU progress
  kDefault = 3,
};

/// Discrete-event simulator with a monotonically advancing clock.
class Simulator {
 public:
  /// Inline capture budget for event callbacks. Large state (e.g. a full
  /// MemoryRequest) must live in pooled component state with the callback
  /// capturing an index — see Controller's read-slot pool.
  static constexpr std::size_t kCallbackCapacity = 48;

  /// Move-only inline callback; oversized captures fail to compile.
  using Callback = BasicInlineFunction<kCallbackCapacity, false>;

  /// Invoked immediately before each event's callback runs, with the
  /// event's tick and the running executed-event count. Used by the
  /// verify subsystem's InvariantMonitor (time-monotonicity checking,
  /// per-event invariant hooks) and by tracing tools.
  using Observer = std::function<void(Tick now, u64 executed)>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  /// Install (or clear, with nullptr) the per-event observer. An unset
  /// observer costs one predicted-not-taken branch per event.
  void set_observer(Observer obs) { observer_ = std::move(obs); }

  /// Current simulated time.
  Tick now() const { return now_; }

  /// Schedule `fn` at absolute tick `at` (must be >= now()).
  void schedule_at(Tick at, Callback fn,
                   Priority prio = Priority::kDefault);

  /// Schedule `fn` after `delay` ticks from now.
  void schedule_in(Tick delay, Callback fn,
                   Priority prio = Priority::kDefault) {
    schedule_at(now_ + delay, std::move(fn), prio);
  }

  /// Run until the event queue is empty or `limit` is reached.
  /// Returns the number of events executed.
  u64 run(Tick limit = kTickMax);

  /// Number of pending events.
  std::size_t pending() const {
    return heap_.size() + (lane_.size() - lane_head_);
  }

  /// Tick of the earliest pending event without executing it, or
  /// kTickMax when the queue is empty. Used by the sharded engine to
  /// fast-forward over idle windows.
  Tick next_tick() const {
    if (lane_head_ < lane_.size()) return now_;
    return heap_.empty() ? kTickMax : heap_.front().tick;
  }

  /// Total events executed so far.
  u64 executed() const { return executed_; }

  /// Tick of the last executed event (0 before the first). Unlike now(),
  /// it stays put when run(limit) moves the clock on to its limit.
  Tick last_event_tick() const { return last_event_tick_; }

 private:
  static constexpr u32 kChunkNodes = 128;  ///< pool growth granularity

  struct EventNode {
    EventNode* next = nullptr;  ///< free-list link
    Callback fn;
  };

  /// A pending event: its (tick, order) key and the node holding its
  /// callback. order = (priority << 56) | insertion seq.
  struct Entry {
    Tick tick;
    u64 order;
    EventNode* node;
  };

  EventNode* alloc_node();
  /// Remove and return the earliest entry with tick <= limit into `out`;
  /// false when there is none.
  bool pop_earliest(Tick limit, Entry& out);
  void fire(const Entry& e);

  std::vector<Entry> heap_;  ///< min-heap on (tick, order)
  /// Events at tick now_, ascending by order, live from lane_head_ on.
  /// now_ cannot advance while the lane holds any: they are the earliest.
  std::vector<Entry> lane_;
  std::size_t lane_head_ = 0;

  // Node pool: chunked storage + LIFO free list (hot nodes recycle first).
  std::vector<std::unique_ptr<EventNode[]>> chunks_;
  EventNode* free_ = nullptr;

  Tick now_ = 0;
  Tick last_event_tick_ = 0;
  u64 seq_ = 0;
  u64 executed_ = 0;
  Observer observer_;
};

/// A fixed-frequency clock domain layered on the picosecond timebase.
class Clock {
 public:
  /// period: ticks per cycle (e.g. 500 ps for a 2 GHz core).
  explicit constexpr Clock(Tick period) : period_(period) {
    // A zero period would make cycle arithmetic divide by zero.
  }

  constexpr Tick period() const { return period_; }
  constexpr double freq_ghz() const {
    return 1000.0 / static_cast<double>(period_);
  }

  /// Cycles elapsed at tick t (floor).
  constexpr u64 cycles_at(Tick t) const { return t / period_; }

  /// Tick of the start of cycle c.
  constexpr Tick tick_of(u64 cycle) const { return cycle * period_; }

  /// Ticks for n cycles.
  constexpr Tick cycles(u64 n) const { return n * period_; }

  /// The first clock edge at or after tick t.
  constexpr Tick next_edge(Tick t) const {
    return ceil_div(t, period_) * period_;
  }

 private:
  Tick period_;
};

}  // namespace tw::sim

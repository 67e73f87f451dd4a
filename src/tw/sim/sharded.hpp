#pragma once
// Sharded event loop: several Simulator instances ("domains") advance in
// lockstep through aligned time-quanta, with cross-domain interaction
// carried by latency-Q messages. Domain 0 is the front (CPU cores,
// caches, the XBar routing logic); domains 1..C are the per-channel
// memory controllers. Each window runs the front, then the channels in
// index order, all on the calling thread.
//
// Window protocol: the quantum width equals the XBar latency Q. A
// message posted while its source executes window [W, W+Q) fires at
// send_tick + Q, which is always >= W+Q — strictly beyond the window —
// so nothing a domain does inside a window can affect any other domain
// in the same window. Messages therefore wait in the source's outbox
// until the window ends, and the barrier drains outboxes in fixed source
// order (0..C), which fixes the destination-simulator sequence numbers.
// Same seed => bit-identical events, metrics and traces.
//
// Trace binding: each domain can be bound to a pre-created TraceRing;
// the engine installs it into the thread-local emission state around the
// domain's quantum. Rings are collected in creation order, so the record
// order of a multi-channel trace is fixed by domain, and each domain's
// ring has its own capacity.

#include <algorithm>
#include <vector>

#include "tw/common/inline_function.hpp"
#include "tw/common/types.hpp"
#include "tw/sim/simulator.hpp"
#include "tw/trace/emit.hpp"

namespace tw::sim {

class ShardedEngine {
 public:
  /// Cross-domain message payload. Heap capture is allowed (a routed
  /// MemoryRequest exceeds the simulator's inline budget); the simulator
  /// event itself only captures {engine, domain, slot}.
  using Message = BasicInlineFunction<64, true>;

  /// quantum: window width in ticks == modeled XBar latency (>= 1).
  explicit ShardedEngine(Tick quantum)
      : quantum_(quantum == 0 ? 1 : quantum) {}
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Register a domain (0 = front, then one per channel, in order).
  /// The simulator must outlive the engine. Returns the domain index.
  u32 add_domain(Simulator& sim) {
    Domain d;
    d.sim = &sim;
    domains_.push_back(std::move(d));
    return static_cast<u32>(domains_.size() - 1);
  }

  /// Bind a domain's trace emission to `ring` under category `mask`
  /// (nullptr = domain emits nothing). A ring per domain keeps each
  /// domain's records together in collection order and gives each its
  /// own capacity. Call before run().
  void bind_trace(u32 domain, trace::TraceRing* ring, u32 mask) {
    domains_[domain].ring = ring;
    domains_[domain].mask = mask;
  }

  /// Post a message from domain `src` to domain `dst`; it executes as a
  /// dst event at src.now() + quantum with priority `prio`. Must only be
  /// called from code running inside domain `src`.
  void post(u32 src, u32 dst, Priority prio, Message msg) {
    domains_[src].outbox.push_back(
        Pending{dst, domains_[src].sim->now() + quantum_, prio,
                std::move(msg)});
  }

  /// Advance every domain to `limit` (window-by-window). Returns the
  /// number of events executed across all domains by this call.
  u64 run(Tick limit);

  Tick quantum() const { return quantum_; }
  u32 domain_count() const { return static_cast<u32>(domains_.size()); }

  /// Total events executed across all domains since construction.
  u64 executed_total() const {
    u64 n = 0;
    for (const auto& d : domains_) n += d.sim->executed();
    return n;
  }

  /// Latest last_event_tick() across all domains.
  Tick last_event_tick() const {
    Tick t = 0;
    for (const auto& d : domains_) t = std::max(t, d.sim->last_event_tick());
    return t;
  }

 private:
  struct Pending {
    u32 dst;
    Tick fire;
    Priority prio;
    Message msg;
  };
  struct Domain {
    Simulator* sim = nullptr;
    trace::TraceRing* ring = nullptr;
    u32 mask = 0;
    std::vector<Message> inbox;     ///< parked messages, indexed by slot
    std::vector<u32> free_slots;    ///< recycled inbox slots
    std::vector<Pending> outbox;    ///< messages sent this window
  };

  void run_domain(u32 d, Tick limit);
  void deliver(Pending& p);
  void fire_message(u32 dst, u32 slot);

  std::vector<Domain> domains_;
  Tick quantum_;
};

}  // namespace tw::sim

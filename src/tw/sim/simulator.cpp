#include "tw/sim/simulator.hpp"

#include <algorithm>
#include <utility>

#include "tw/trace/emit.hpp"

namespace tw::sim {
namespace {

// std heaps are max-heaps; "later" on top-of-comparison makes a min-heap.
struct Later {
  template <class E>
  bool operator()(const E& a, const E& b) const {
    return a.tick != b.tick ? a.tick > b.tick : a.order > b.order;
  }
};

}  // namespace

Simulator::~Simulator() = default;  // chunks_ owns every node

Simulator::EventNode* Simulator::alloc_node() {
  if (free_ == nullptr) {
    auto chunk = std::make_unique<EventNode[]>(kChunkNodes);
    for (u32 i = 0; i < kChunkNodes; ++i) {
      chunk[i].next = free_;
      free_ = &chunk[i];
    }
    chunks_.push_back(std::move(chunk));
  }
  EventNode* n = free_;
  free_ = n->next;
  return n;
}

void Simulator::schedule_at(Tick at, Callback fn, Priority prio) {
  TW_EXPECTS(at >= now_);
  TW_EXPECTS(fn != nullptr);
  EventNode* n = alloc_node();
  n->fn = std::move(fn);
  const Entry e{at, (static_cast<u64>(prio) << 56) | seq_++, n};
  if (at != now_) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    return;
  }
  // Current tick: the newest seq sorts last within its priority, so the
  // insert point is nearly always the end.
  const auto pos = std::upper_bound(
      lane_.begin() + static_cast<std::ptrdiff_t>(lane_head_), lane_.end(),
      e, [](const Entry& a, const Entry& b) { return a.order < b.order; });
  lane_.insert(pos, e);
}

bool Simulator::pop_earliest(Tick limit, Entry& out) {
  if (lane_head_ < lane_.size()) {
    if (now_ > limit) return false;
    // Heap ticks are >= now_, the lane's tick, so the heap top comes
    // first only on the same tick with a smaller order.
    if (heap_.empty() || heap_.front().tick != now_ ||
        heap_.front().order > lane_[lane_head_].order) {
      out = lane_[lane_head_];
      if (++lane_head_ == lane_.size()) {
        lane_.clear();
        lane_head_ = 0;
      }
      return true;
    }
  } else if (heap_.empty() || heap_.front().tick > limit) {
    return false;
  }
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  out = heap_.back();
  heap_.pop_back();
  return true;
}

void Simulator::fire(const Entry& e) {
  TW_ASSERT(e.tick >= now_);
  now_ = e.tick;
  ++executed_;
  if (observer_) observer_(now_, executed_);
  if (trace::on<trace::Category::kKernel>()) {
    // arg0 = running executed count, arg1 = the event's priority lane.
    trace::emit_instant(trace::Category::kKernel, trace::Op::kEventFire,
                        trace::track_id(trace::Track::kKernel, 0), now_,
                        executed_, e.order >> 56);
  }
  EventNode* n = e.node;
  n->fn();  // may schedule further events; n is no longer pending
  n->fn.reset();  // release captures now, not when the node is reused
  n->next = free_;
  free_ = n;
}

u64 Simulator::run(Tick limit) {
  u64 fired = 0;
  Entry e{};
  while (pop_earliest(limit, e)) {
    fire(e);
    ++fired;
  }
  if (fired != 0) last_event_tick_ = now_;
  // Advance the clock to the limit: everything left is strictly later.
  if (limit != kTickMax && now_ < limit) now_ = limit;
  return fired;
}

}  // namespace tw::sim

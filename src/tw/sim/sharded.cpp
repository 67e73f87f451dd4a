#include "tw/sim/sharded.hpp"

#include <algorithm>

namespace tw::sim {

void ShardedEngine::run_domain(u32 di, Tick limit) {
  Domain& d = domains_[di];
  // Install the domain's ring for the duration of the quantum so its
  // records land in its own ring. An unbound domain emits nothing
  // (ring == nullptr gates every category).
  const trace::ThreadState saved = trace::g_tls;
  trace::g_tls.ring = d.ring;
  trace::g_tls.mask = d.ring != nullptr ? d.mask : 0;
  d.sim->run(limit);
  trace::g_tls = saved;
}

void ShardedEngine::fire_message(u32 dst, u32 slot) {
  Domain& d = domains_[dst];
  Message msg = std::move(d.inbox[slot]);
  d.free_slots.push_back(slot);
  msg();
}

void ShardedEngine::deliver(Pending& p) {
  Domain& d = domains_[p.dst];
  u32 slot;
  if (!d.free_slots.empty()) {
    slot = d.free_slots.back();
    d.free_slots.pop_back();
    d.inbox[slot] = std::move(p.msg);
  } else {
    slot = static_cast<u32>(d.inbox.size());
    d.inbox.push_back(std::move(p.msg));
  }
  ShardedEngine* self = this;
  const u32 dst = p.dst;
  d.sim->schedule_at(
      p.fire, [self, dst, slot] { self->fire_message(dst, slot); }, p.prio);
}

u64 ShardedEngine::run(Tick limit) {
  const u64 before = executed_total();
  const u32 n = static_cast<u32>(domains_.size());
  for (;;) {
    // Barrier: outboxes drain in fixed source order, which fixes the
    // destination sequence numbers. A message posted in a window fires
    // at >= wstart + quantum > wend, hence >= dst.now(). The drain also
    // delivers messages posted between run() calls (e.g. front-side
    // enqueues), so the peek below can see them.
    for (u32 s = 0; s < n; ++s) {
      for (Pending& p : domains_[s].outbox) deliver(p);
      domains_[s].outbox.clear();
    }
    // Fast-forward to the earliest pending event anywhere, then run the
    // aligned window containing it. Idle stretches cost one peek, not a
    // quantum-by-quantum crawl.
    Tick next = kTickMax;
    for (const auto& d : domains_) {
      next = std::min(next, d.sim->next_tick());
    }
    if (next == kTickMax || next > limit) break;
    const Tick wstart = next / quantum_ * quantum_;
    Tick wend = wstart + quantum_ - 1;
    if (wend > limit) wend = limit;

    // The front, then the channel domains in index order.
    for (u32 d = 0; d < n; ++d) run_domain(d, wend);
  }
  // Advance every clock to the limit (fires nothing: all remaining
  // events are strictly later).
  if (limit != kTickMax) {
    for (u32 d = 0; d < n; ++d) run_domain(d, limit);
  }
  return executed_total() - before;
}

}  // namespace tw::sim

#include "tw/mem/memory_system.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "tw/common/assert.hpp"

namespace tw::mem {

MemorySystem::MemorySystem(sim::Simulator& front_sim,
                           const pcm::PcmConfig& pcm,
                           const ControllerConfig& ccfg,
                           const SchemeFactory& factory,
                           stats::Registry& registry,
                           const fault::FaultConfig& fault, u64 seed,
                           double ones_bias, Tick xbar_latency, u32,
                           const DramConfig& dram)
    : front_(front_sim),
      main_reg_(registry),
      map_(pcm.geometry),
      channels_(map_.channels()),
      rq_entries_(ccfg.read_queue_entries),
      wq_entries_(ccfg.write_queue_entries) {
  const std::string derr = dram.error(pcm.geometry);
  if (!derr.empty()) throw std::invalid_argument("MemorySystem: " + derr);
  const u32 total_banks = pcm.geometry.banks * pcm.geometry.ranks;
  chans_.resize(channels_);

  if (channels_ == 1) {
    // Passthrough: the controller lives on the front simulator and
    // registers its stats in the main registry — bit-identical to the
    // pre-multi-channel wiring.
    Channel& ch = chans_[0];
    ch.scheme = factory(0);
    if (fault.enabled()) {
      ch.fmodel =
          std::make_unique<fault::FaultModel>(fault, total_banks, seed);
    }
    ch.ctl = std::make_unique<Controller>(front_sim, pcm, ccfg, *ch.scheme,
                                          registry, seed, ones_bias,
                                          ch.fmodel.get());
  } else {
    engine_ = std::make_unique<sim::ShardedEngine>(xbar_latency);
    const u32 front_domain = engine_->add_domain(front_sim);
    TW_ASSERT(front_domain == 0);

    for (u32 c = 0; c < channels_; ++c) {
      Channel& ch = chans_[c];
      ch.sim = std::make_unique<sim::Simulator>();
      ch.reg = std::make_unique<stats::Registry>();
      ch.scheme = factory(c);
      if (fault.enabled()) {
        // Per-channel fault streams: same profile, decorrelated sites.
        ch.fmodel = std::make_unique<fault::FaultModel>(
            fault, total_banks, seed + c * 0x9E3779B97F4A7C15ull);
      }
      ControllerConfig chan_cfg = ccfg;
      chan_cfg.track_base = c * kChannelTrackStride;
      ch.ctl = std::make_unique<Controller>(*ch.sim, pcm, chan_cfg,
                                            *ch.scheme, *ch.reg, seed,
                                            ones_bias, ch.fmodel.get());
      ch.credits.read = rq_entries_;
      ch.credits.write = wq_entries_;
      const u32 domain = engine_->add_domain(*ch.sim);
      TW_ASSERT(domain == c + 1);

      // Channel-side wiring (runs in the channel's domain): completions
      // ride latency-Q messages back to the front, releasing their credit
      // there; queue space drains the delivery backlog locally.
      ch.ctl->set_read_callback([this, c](const MemoryRequest& req) {
        engine_->post(c + 1, 0, sim::Priority::kDeviceComplete,
                      sim::ShardedEngine::Message([this, c, r = req] {
                        release_credit(c, false);
                        front_read_complete(c, r);
                      }));
      });
      ch.ctl->set_write_callback([this, c](const MemoryRequest& req) {
        engine_->post(c + 1, 0, sim::Priority::kDeviceComplete,
                      sim::ShardedEngine::Message([this, c, r = req] {
                        release_credit(c, true);
                        front_write_complete(c, r);
                      }));
      });
      ch.ctl->set_space_callback([this, c] { drain_backlog(c); });
    }
  }

  if (dram.enabled) {
    dram_on_ = true;
    tiers_.resize(channels_);
    for (u32 c = 0; c < channels_; ++c) wire_dram(c, dram);
  }
}

void MemorySystem::wire_dram(u32 c, const DramConfig& dram) {
  tiers_[c] = std::make_unique<DramTier>(front_, dram, map_, c, main_reg_);
  DramTier* tier = tiers_[c].get();
  // Tier-side completions (DRAM hits and demand-read returns) feed the
  // user callbacks stored on the MemorySystem; reading them at call time
  // lets set_read_callback() run after construction.
  tier->set_read_callback([this](const MemoryRequest& r) {
    if (on_read_) on_read_(r);
  });
  tier->set_write_callback([this](const MemoryRequest& r) {
    if (on_write_) on_write_(r);
  });
  if (channels_ == 1) {
    // Miss path straight into the controller; passing the lvalue copies,
    // so a refusal leaves the tier's pending entry intact.
    tier->set_forward(
        [this](MemoryRequest& r) { return chans_[0].ctl->enqueue(r); });
    chans_[0].ctl->set_read_callback(
        [this](const MemoryRequest& r) { front_read_complete(0, r); });
    chans_[0].ctl->set_write_callback(
        [this](const MemoryRequest& r) { front_write_complete(0, r); });
    chans_[0].ctl->set_space_callback([this] {
      tiers_[0]->on_pcm_space();
      if (starved_ && tiers_[0]->has_room()) {
        starved_ = false;
        if (on_space_) on_space_();
      }
    });
  } else {
    // Miss path consumes a channel credit exactly like a front enqueue
    // did without the tier; DRAM hits never reach this function, which
    // is what keeps them credit-free.
    tier->set_forward([this, c](MemoryRequest& r) {
      Credits& cr = chans_[c].credits;
      u32& avail = r.is_write() ? cr.write : cr.read;
      if (avail == 0) return false;
      --avail;
      engine_->post(0, c + 1, sim::Priority::kController,
                    sim::ShardedEngine::Message(
                        [this, c, req = std::move(r)]() mutable {
                          deliver(c, std::move(req));
                        }));
      return true;
    });
  }
}

void MemorySystem::front_read_complete(u32 c, const MemoryRequest& req) {
  if (dram_on_) {
    tiers_[c]->on_pcm_read_complete(req);
    return;
  }
  if (on_read_) on_read_(req);
}

void MemorySystem::front_write_complete(u32 c, const MemoryRequest& req) {
  if (dram_on_ && tiers_[c]->absorbs_write_complete(req)) return;
  if (on_write_) on_write_(req);
}

MemorySystem::~MemorySystem() = default;

bool MemorySystem::enqueue(MemoryRequest req) {
  if (dram_on_) {
    const u32 c = channels_ == 1 ? 0 : map_.channel_of(req.addr);
    const bool ok = tiers_[c]->enqueue(std::move(req));
    if (!ok) starved_ = true;
    return ok;
  }
  if (channels_ == 1) return chans_[0].ctl->enqueue(std::move(req));
  const u32 c = map_.channel_of(req.addr);
  Credits& cr = chans_[c].credits;
  u32& avail = req.is_write() ? cr.write : cr.read;
  if (avail == 0) {
    starved_ = true;
    return false;
  }
  --avail;
  engine_->post(0, c + 1, sim::Priority::kController,
                sim::ShardedEngine::Message(
                    [this, c, r = std::move(req)]() mutable {
                      deliver(c, std::move(r));
                    }));
  return true;
}

void MemorySystem::set_read_callback(ReadCallback cb) {
  if (channels_ == 1 && !dram_on_) {
    chans_[0].ctl->set_read_callback(std::move(cb));
  } else {
    on_read_ = std::move(cb);
  }
}

void MemorySystem::set_write_callback(WriteCallback cb) {
  if (channels_ == 1 && !dram_on_) {
    chans_[0].ctl->set_write_callback(std::move(cb));
  } else {
    on_write_ = std::move(cb);
  }
}

void MemorySystem::set_space_callback(SpaceCallback cb) {
  if (channels_ == 1 && !dram_on_) {
    chans_[0].ctl->set_space_callback(std::move(cb));
  } else {
    on_space_ = std::move(cb);
  }
}

bool MemorySystem::idle() const {
  for (const Channel& ch : chans_) {
    if (!ch.ctl->idle() || !ch.backlog.empty()) return false;
    if (channels_ > 1 && (ch.credits.read != rq_entries_ ||
                          ch.credits.write != wq_entries_)) {
      return false;  // requests or completions still in flight
    }
  }
  if (dram_on_) {
    for (const auto& tier : tiers_) {
      if (!tier->idle()) return false;
    }
  }
  return true;
}

DataStore& MemorySystem::store_for(Addr addr) {
  return chans_[channels_ == 1 ? 0 : map_.channel_of(addr)].ctl->store();
}

u64 MemorySystem::run(Tick limit) {
  return channels_ == 1 ? front_.run(limit) : engine_->run(limit);
}

u64 MemorySystem::executed_events() const {
  return channels_ == 1 ? front_.executed() : engine_->executed_total();
}

Tick MemorySystem::last_event_tick() const {
  return channels_ == 1 ? front_.last_event_tick()
                        : engine_->last_event_tick();
}

void MemorySystem::merge_stats() {
  if (channels_ == 1) return;
  // Fixed channel order fixes the merged accumulator arithmetic (and
  // thus the reported doubles).
  for (const Channel& ch : chans_) main_reg_.merge_from(*ch.reg);
}

void MemorySystem::bind_trace(trace::Tracer& tracer) {
  if (channels_ == 1) return;
  front_ring_ = &tracer.make_ring();
  engine_->bind_trace(0, front_ring_, tracer.mask());
  for (u32 c = 0; c < channels_; ++c) {
    engine_->bind_trace(c + 1, &tracer.make_ring(), tracer.mask());
  }
}

void MemorySystem::deliver(u32 c, MemoryRequest req) {
  Channel& ch = chans_[c];
  if (!ch.backlog.empty()) {
    // Preserve arrival order behind requests already waiting.
    ch.backlog.push_back(std::move(req));
    return;
  }
  try_deliver(c, std::move(req));
}

void MemorySystem::try_deliver(u32 c, MemoryRequest req) {
  Channel& ch = chans_[c];
  const bool is_write = req.is_write();
  const u32 depth_before = ch.ctl->write_queue_depth();
  // enqueue takes its argument by value; passing the lvalue copies, so a
  // refusal leaves `req` intact for the backlog.
  if (!ch.ctl->enqueue(req)) {
    ch.backlog.push_back(std::move(req));
    return;
  }
  if (is_write && ch.ctl->write_queue_depth() == depth_before) {
    // Coalesced into a queued same-line write: no completion will ever
    // fire for this request, so hand its credit back now.
    post_credit(c, true);
  }
}

void MemorySystem::drain_backlog(u32 c) {
  Channel& ch = chans_[c];
  while (!ch.backlog.empty()) {
    MemoryRequest& req = ch.backlog.front();
    const bool is_write = req.is_write();
    const u32 depth_before = ch.ctl->write_queue_depth();
    if (!ch.ctl->enqueue(req)) return;  // still full; keep order, wait
    ch.backlog.pop_front();
    if (is_write && ch.ctl->write_queue_depth() == depth_before) {
      post_credit(c, true);
    }
  }
}

void MemorySystem::post_credit(u32 c, bool is_write) {
  engine_->post(c + 1, 0, sim::Priority::kDeviceComplete,
                sim::ShardedEngine::Message([this, c, is_write] {
                  release_credit(c, is_write);
                }));
}

void MemorySystem::release_credit(u32 c, bool is_write) {
  Credits& cr = chans_[c].credits;
  u32& avail = is_write ? cr.write : cr.read;
  const u32 cap = is_write ? wq_entries_ : rq_entries_;
  if (avail < cap) ++avail;
  if (dram_on_) {
    // The freed credit may let the tier forward a pending writeback or
    // demand miss; the front unstarves only once its pending queue has
    // room again (tier starvation is about that queue, not credits).
    tiers_[c]->on_pcm_space();
    if (starved_ && tiers_[c]->has_room()) {
      starved_ = false;
      if (on_space_) on_space_();
    }
    return;
  }
  if (starved_) {
    starved_ = false;
    if (on_space_) on_space_();
  }
}

}  // namespace tw::mem

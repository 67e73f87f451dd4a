#include "tw/mem/controller.hpp"

#include <algorithm>
#include <utility>

#include "tw/common/assert.hpp"
#include "tw/common/bits.hpp"
#include "tw/common/env.hpp"
#include "tw/common/inline_vec.hpp"
#include "tw/trace/emit.hpp"

namespace tw::mem {

namespace {
// Shorthand for the controller's emission sites; every record is gated on
// the kController category.
constexpr auto kCat = trace::Category::kController;
// Track instance indices are offset by the controller's track_base so a
// MemorySystem can namespace each channel's tracks (base 0 keeps
// single-channel traces byte-identical to before).
constexpr u32 read_queue_track(u32 base) {
  return trace::track_id(trace::Track::kQueue, base + 0);
}
constexpr u32 write_queue_track(u32 base) {
  return trace::track_id(trace::Track::kQueue, base + 1);
}
constexpr u32 bank_track(u32 base, u32 bank) {
  return trace::track_id(trace::Track::kBank, base + bank);
}
constexpr u32 sub_track(u32 base, u32 sub) {
  return trace::track_id(trace::Track::kSubarray, base + sub);
}
constexpr auto kFaultCat = trace::Category::kFault;
constexpr u32 fault_track(u32 base) {
  return trace::track_id(trace::Track::kFault, base);
}
// PALP emissions (partition occupancy spans, overlapped reads, pump
// stalls) live in their own category so partition studies can be traced
// without the full controller firehose. All emission sites are gated on
// palp_on_, keeping PALP-off trace bytes identical to before.
constexpr auto kPalpCat = trace::Category::kPalp;
constexpr u32 palp_track(u32 base, u32 bank) {
  return trace::track_id(trace::Track::kPalp, base + bank);
}
// Content-encoder pre-stage emissions. Gated on plan.enc.active, so
// encoder-off runs emit nothing and their trace bytes stay identical to
// builds without the encoder stage.
constexpr auto kEncodeCat = trace::Category::kEncode;
constexpr u32 encode_track(u32 base, u32 bank) {
  return trace::track_id(trace::Track::kEncode, base + bank);
}
}  // namespace

Controller::Controller(sim::Simulator& sim, const pcm::PcmConfig& pcm_cfg,
                       ControllerConfig cfg, schemes::WriteScheme& scheme,
                       stats::Registry& registry, u64 data_seed,
                       double ones_bias, const fault::FaultModel* fault)
    : sim_(sim),
      pcm_(pcm_cfg),
      cfg_(cfg),
      scheme_(scheme),
      reg_(registry),
      fault_(fault),
      fault_remap_(fault != nullptr && fault->any_bank_stuck()),
      map_(pcm_cfg.geometry),
      store_(pcm_cfg.geometry.units_per_line(), data_seed, ones_bias),
      banks_(map_.total_banks()),
      subarrays_(map_.total_subarrays()),
      pumps_(map_.total_banks()),
      energy_(pcm_cfg.energy),
      read_by_sub_(map_.total_subarrays()),
      write_by_bank_(map_.total_banks()),
      subs_with_reads_((map_.total_subarrays() + 63) / 64, 0),
      banks_with_writes_((map_.total_banks() + 63) / 64, 0),
      verify_index_(verify_env_enabled()),
      open_row_(map_.total_banks()),
      live_writes_(map_.total_banks()),
      paused_write_(map_.total_banks()),
      bank_epoch_(map_.total_banks(), 0),
      palp_on_(cfg.palp.enabled && pcm_cfg.geometry.subarrays_per_bank > 1),
      c_reads_(registry.counter("mem.reads")),
      c_writes_(registry.counter("mem.writes")),
      c_forwarded_(registry.counter("mem.reads_forwarded")),
      c_coalesced_(registry.counter("mem.writes_coalesced")),
      c_silent_(registry.counter("mem.writes_silent")),
      c_flipped_units_(registry.counter("mem.units_flipped")),
      c_pauses_(registry.counter("mem.write_pauses")),
      c_gap_moves_(registry.counter("mem.gap_moves")),
      c_gap_requeues_(registry.counter("mem.gap_requeues")),
      c_batched_(registry.counter("mem.writes_batched")),
      c_row_hits_(registry.counter("mem.row_hits")),
      c_row_misses_(registry.counter("mem.row_misses")),
      c_dispatches_(registry.counter("mem.dispatch_rounds")),
      c_fault_retries_(registry.counter("mem.fault_retries")),
      c_failed_lines_(registry.counter("mem.failed_lines")),
      c_brownout_writes_(registry.counter("mem.brownout_writes")),
      c_stuck_remaps_(registry.counter("mem.stuck_remaps")),
      c_palp_overlap_reads_(registry.counter("mem.palp_overlapped_reads")),
      c_palp_pump_stalls_(registry.counter("mem.palp_pump_stalls")),
      c_palp_write_overlaps_(registry.counter("mem.palp_write_overlaps")),
      c_enc_writes_(registry.counter("mem.enc_writes")),
      c_enc_coded_units_(registry.counter("mem.enc_coded_units")),
      c_enc_tag_bits_(registry.counter("mem.enc_tag_bits")),
      a_read_latency_(registry.accumulator("mem.read_latency_ns")),
      a_write_latency_(registry.accumulator("mem.write_latency_ns")),
      a_write_units_(registry.accumulator("mem.write_units")),
      a_write_service_(registry.accumulator("mem.write_service_ns")),
      a_power_util_(registry.accumulator("mem.power_utilization")),
      a_batch_lines_(registry.accumulator("mem.batch_lines")),
      a_batch_occupancy_(registry.accumulator("mem.batch_occupancy")),
      a_palp_batch_spread_(registry.accumulator("mem.palp_batch_spread")),
      h_read_latency_(registry.histogram("mem.read_latency_hist_ns")),
      h_write_latency_(registry.histogram("mem.write_latency_hist_ns")) {
  TW_EXPECTS(cfg_.valid());
  pcm_.validate();
  if (scheme_.transforms_content()) {
    // The scheme stores a coded image (content-encoder pre-stage): route
    // every logical readback — demand reads, gap-move migration, the
    // generator's read-modify-write stream — through its decoder.
    store_.set_decoder(&scheme_,
                       [](const void* ctx, const pcm::LineBuf& l) {
                         return static_cast<const schemes::WriteScheme*>(ctx)
                             ->decode_stored(l);
                       });
  }
  read_ready_.reserve(map_.total_subarrays());
  for (auto& v : live_writes_) v.reserve(palp_on_ ? cfg_.palp.write_ways : 1);
}

// -- Node plumbing --------------------------------------------------------

u32 Controller::make_node(MemoryRequest&& req, Addr phys) {
  const u32 id = nodes_.alloc();
  ReqNode& n = nodes_[id];
  n.req = std::move(req);
  n.phys = phys;
  n.sub = eff_sub(phys);
  n.bank = eff_bank(phys);
  return id;
}

MemoryRequest Controller::take_node(u32 id) {
  MemoryRequest req = std::move(nodes_[id].req);
  nodes_.release(id);
  return req;
}

void Controller::link_read(u32 id) {
  read_age_.push_back(nodes_, id);
  const u32 sub = nodes_[id].sub;
  read_by_sub_[sub].push_back(nodes_, id);
  bitmap_set(subs_with_reads_, sub);
  read_q_peak_ = std::max(read_q_peak_, read_age_.size());
}

void Controller::unlink_read(u32 id) {
  const u32 sub = nodes_[id].sub;
  read_age_.erase(nodes_, id);
  read_by_sub_[sub].erase(nodes_, id);
  if (read_by_sub_[sub].empty()) bitmap_clear(subs_with_reads_, sub);
}

void Controller::link_write(u32 id) {
  write_age_.push_back(nodes_, id);
  const u32 bank = nodes_[id].bank;
  write_by_bank_[bank].push_back(nodes_, id);
  bitmap_set(banks_with_writes_, bank);
  write_q_peak_ = std::max(write_q_peak_, write_age_.size());
}

void Controller::unlink_write(u32 id) {
  const u32 bank = nodes_[id].bank;
  write_age_.erase(nodes_, id);
  write_by_bank_[bank].erase(nodes_, id);
  if (write_by_bank_[bank].empty()) bitmap_clear(banks_with_writes_, bank);
}

void Controller::requeue_moved_line(Addr from, Addr to) {
  // `to` was the empty gap slot, so only the line at `from` moved; its
  // queued requests (several reads, or writes without coalescing) all sit
  // in `from`'s buckets.
  const u32 to_sub = eff_sub(to);
  const u32 to_bank = eff_bank(to);
  const auto requeue = [&](std::vector<BucketList>& buckets,
                           std::vector<u64>& nonempty, u32 src, u32 dst) {
    for (u32 id = buckets[src].head(); id != kNilIndex;) {
      const u32 nxt = buckets[src].next(nodes_, id);
      ReqNode& n = nodes_[id];
      if (n.phys == from) {
        c_gap_requeues_.inc();
        n.phys = to;
        n.sub = to_sub;
        n.bank = to_bank;
        if (dst != src) {
          buckets[src].erase(nodes_, id);
          // The list only appends: append, then rotate the run of nodes
          // younger than this one (at the tail) behind it.
          BucketList& list = buckets[dst];
          u32 younger = kNilIndex;
          for (u32 y = list.tail();
               y != kNilIndex && nodes_[y].req.id > n.req.id;
               y = list.prev(nodes_, y)) {
            younger = y;
          }
          list.push_back(nodes_, id);
          while (younger != kNilIndex && younger != id) {
            const u32 after = list.next(nodes_, younger);
            list.erase(nodes_, younger);
            list.push_back(nodes_, younger);
            younger = after;
          }
          bitmap_set(nonempty, dst);
        }
      }
      id = nxt;
    }
    if (buckets[src].empty()) bitmap_clear(nonempty, src);
  };
  requeue(read_by_sub_, subs_with_reads_, eff_sub(from), to_sub);
  requeue(write_by_bank_, banks_with_writes_, eff_bank(from), to_bank);
}

void Controller::check_queue_index() {
  const auto check = [&](const AgeList& age,
                         const std::vector<BucketList>& buckets,
                         const std::vector<u64>& nonempty, u32 ReqNode::*key) {
    u32 linked = 0;
    for (u32 b = 0; b < buckets.size(); ++b) {
      TW_ASSERT(bitmap_test(nonempty, b) == !buckets[b].empty());
      u64 last_id = 0;
      for (u32 id = buckets[b].head(); id != kNilIndex;
           id = buckets[b].next(nodes_, id), ++linked) {
        const ReqNode& n = nodes_[id];
        const Addr phys = physical_of(n.req.addr);
        TW_ASSERT(n.req.id > last_id && n.*key == b);
        TW_ASSERT(n.phys == phys && n.sub == eff_sub(phys) &&
                  n.bank == eff_bank(phys));
        last_id = n.req.id;
      }
    }
    TW_ASSERT(linked == age.size());
  };
  check(read_age_, read_by_sub_, subs_with_reads_, &ReqNode::sub);
  check(write_age_, write_by_bank_, banks_with_writes_, &ReqNode::bank);
}

// -- Open-row tracking ----------------------------------------------------

bool Controller::row_hit(u32 bank, Addr phys) const {
  const OpenRow& open = open_row_[bank];
  return open.valid && open.row == map_.decode(phys).row;
}

void Controller::note_row_activate(u32 bank, Addr phys) {
  OpenRow& open = open_row_[bank];
  const u64 row = map_.decode(phys).row;
  if (open.valid && open.row == row) {
    c_row_hits_.inc();
  } else {
    c_row_misses_.inc();
  }
  open.row = row;
  open.valid = true;
}

// -- Enqueue --------------------------------------------------------------

bool Controller::enqueue(MemoryRequest req) {
  req.addr = map_.line_of(req.addr);
  req.enqueue_tick = sim_.now();
  req.id = next_id_++;

  // Every queued request of one logical line has the same physical line,
  // so coalescing and forwarding scan a single bucket.
  const Addr phys = physical_of(req.addr);
  if (req.is_write()) {
    TW_EXPECTS(req.data.units() == store_.units_per_line());
    if (cfg_.write_coalescing) {
      const BucketList& list = write_by_bank_[eff_bank(phys)];
      for (u32 id = list.head(); id != kNilIndex; id = list.next(nodes_, id)) {
        if (nodes_[id].req.addr == req.addr) {
          nodes_[id].req.data = req.data;
          c_coalesced_.inc();
          if (trace::on<kCat>()) {
            trace::emit_instant(kCat, trace::Op::kWriteCoalesce,
                                write_queue_track(cfg_.track_base), sim_.now(), req.id,
                                nodes_[id].req.id);
          }
          return true;
        }
      }
    }
    if (write_age_.size() >= cfg_.write_queue_entries) return false;
    const u64 req_id = req.id;
    link_write(make_node(std::move(req), phys));
    if (trace::on<kCat>()) {
      trace::emit_instant(kCat, trace::Op::kWriteEnqueue, write_queue_track(cfg_.track_base),
                          sim_.now(), req_id, write_age_.size());
    }
    if (write_age_.size() >= cfg_.write_queue_entries) set_draining(true);
  } else {
    if (cfg_.read_forwarding) {
      // Youngest match wins, as the reference's reverse iteration; the
      // bucket list preserves relative queue order, so scanning it
      // backwards finds the same entry.
      u32 match = kNilIndex;
      const BucketList& list = write_by_bank_[eff_bank(phys)];
      for (u32 id = list.tail(); id != kNilIndex; id = list.prev(nodes_, id)) {
        if (nodes_[id].req.addr == req.addr) {
          match = id;
          break;
        }
      }
      if (match != kNilIndex) {
        c_forwarded_.inc();
        c_reads_.inc();
        if (trace::on<kCat>()) {
          trace::emit_instant(kCat, trace::Op::kReadForward, read_queue_track(cfg_.track_base),
                              sim_.now(), req.id, nodes_[match].req.id);
        }
        MemoryRequest done = req;
        done.start_tick = sim_.now();
        done.complete_tick = sim_.now() + cfg_.forward_latency;
        const double lat_ns = to_ns(cfg_.forward_latency);
        a_read_latency_.add(lat_ns);
        h_read_latency_.add(static_cast<u64>(lat_ns));
        const u32 slot = acquire_read_slot(std::move(done));
        sim_.schedule_in(
            cfg_.forward_latency,
            [this, slot] {
              const MemoryRequest fwd = take_read_slot(slot);
              if (on_read_) on_read_(fwd);
            },
            sim::Priority::kDeviceComplete);
        return true;
      }
    }
    if (read_age_.size() >= cfg_.read_queue_entries) return false;
    const u64 req_id = req.id;
    link_read(make_node(std::move(req), phys));
    if (trace::on<kCat>()) {
      trace::emit_instant(kCat, trace::Op::kReadEnqueue, read_queue_track(cfg_.track_base),
                          sim_.now(), req_id, read_age_.size());
    }
  }

  if (!dispatch_scheduled_) {
    dispatch_scheduled_ = true;
    sim_.schedule_in(0, [this] { dispatch(); }, sim::Priority::kController);
  }
  return true;
}

bool Controller::idle() const {
  return read_age_.empty() && write_age_.empty() && inflight_ == 0 &&
         paused_count_ == 0;
}

Addr Controller::physical_of(Addr logical_line_addr) {
  if (!cfg_.wear_leveling) return logical_line_addr;
  const u64 li = map_.line_index(logical_line_addr);
  const u64 n = cfg_.start_gap.region_lines;
  const u64 region = li / n;
  const u64 within = li % n;
  const u64 slot = leveler_for(region).map(within);
  const u64 phys_line = region * (n + 1) + slot;
  return phys_line * map_.line_bytes();
}

u64 Controller::gap_moves() const { return c_gap_moves_.value(); }

u32 Controller::acquire_read_slot(MemoryRequest&& req) {
  if (!free_read_slots_.empty()) {
    const u32 slot = free_read_slots_.back();
    free_read_slots_.pop_back();
    read_pool_[slot] = std::move(req);
    return slot;
  }
  read_pool_.push_back(std::move(req));
  return static_cast<u32>(read_pool_.size() - 1);
}

MemoryRequest Controller::take_read_slot(u32 slot) {
  MemoryRequest req = std::move(read_pool_[slot]);
  free_read_slots_.push_back(slot);
  return req;
}

StartGapLeveler& Controller::leveler_for(u64 region) {
  // Keyed, not dense: region indices follow the address layout (the
  // generator's shared region alone sits near index 2^26), so a table
  // sized by the largest index would be bounded by nothing.
  u32 idx = leveler_index_.find(region);
  if (idx == FlatIndexMap::kNoIndex) {
    idx = static_cast<u32>(levelers_.size());
    levelers_.emplace_back(cfg_.start_gap);
    leveler_index_.insert(region, idx);
  }
  return levelers_[idx];
}

void Controller::schedule_dispatch() {
  if (dispatch_scheduled_) return;
  dispatch_scheduled_ = true;
  sim_.schedule_in(0, [this] { dispatch(); }, sim::Priority::kController);
}

// -- Scheduling -----------------------------------------------------------

void Controller::set_draining(bool on) {
  if (draining_ == on) return;
  draining_ = on;
  if (trace::on<kCat>()) {
    trace::emit_instant(kCat, on ? trace::Op::kDrainStart : trace::Op::kDrainEnd,
                        write_queue_track(cfg_.track_base), sim_.now(), write_age_.size());
  }
}

void Controller::dispatch() {
  dispatch_scheduled_ = false;
  c_dispatches_.inc();
  const Tick now = sim_.now();
  if (trace::on<kCat>()) {
    trace::emit_instant(kCat, trace::Op::kDispatch, read_queue_track(cfg_.track_base), now,
                        read_age_.size(), write_age_.size());
  }
  if (verify_index_) check_queue_index();

  dispatch_reads(now);  // reads first (FRFCFS priority)

  if (draining_ && write_age_.size() <= cfg_.drain_low_watermark) {
    set_draining(false);
  }
  const bool issue_writes =
      draining_ ||
      (cfg_.drain == ControllerConfig::DrainPolicy::kOpportunistic &&
       read_age_.empty() && !write_age_.empty());
  if (issue_writes) dispatch_writes(now);

  if (paused_count_ > 0) {
    for (u32 bank = 0; bank < paused_write_.size(); ++bank) {
      if (paused_write_[bank].has_value() && banks_[bank].idle_at(now) &&
          subarrays_[paused_write_[bank]->subarray].idle_at(now) &&
          read_by_sub_[paused_write_[bank]->subarray].empty()) {
        resume_paused(bank);
      }
    }
  }
}

u32 Controller::read_cursor(u32 sub, u64 floor) const {
  const BucketList& list = read_by_sub_[sub];
  u32 first = list.head();
  while (first != kNilIndex && nodes_[first].req.id <= floor) {
    first = list.next(nodes_, first);
  }
  return first;
}

u32 Controller::write_cursor(u32 bank, u32 from, Tick now, u64 floor) const {
  const BucketList& list = write_by_bank_[bank];
  for (u32 id = from; id != kNilIndex; id = list.next(nodes_, id)) {
    const ReqNode& n = nodes_[id];
    if (n.req.id > floor && subarrays_[n.sub].idle_at(now)) return id;
  }
  return kNilIndex;
}

void Controller::dispatch_reads(Tick now) {
  // Issue every ready read in age order. Within one dispatch, issuing
  // only occupies the issuing subarray (the ready set shrinks
  // monotonically) and the space callback can only append younger
  // requests, so collecting each ready bucket's head once and issuing
  // the sorted batch reproduces the exact issue order of repeated
  // best-ready selection — O(s + k log s) per round instead of O(k*s).
  //
  // The outer loop always re-collects (new arrivals during the batch are
  // younger than every batch element, so they issue strictly after it —
  // on the next pass) and terminates on a pass without progress; the
  // common tail is one empty bitmap scan. A zero-latency service
  // additionally cuts a batch short to force the fresh pass early: it
  // leaves the issued subarray ready with a new head.
  //
  // Write pausing adds the one step that frees a resource: the oldest
  // read of a busy subarray asks its bank's write to pause, at that
  // read's age position. A pause whose boundary is `now` frees the
  // subarray mid-round. An age-ordered sweep has already passed that
  // read, so it and anything older on the subarray stay ineligible this
  // round (a per-subarray age floor); younger reads there may issue, and
  // the pass ends early so they are collected.
  struct SubFloor {
    u32 sub;
    u64 id;
  };
  InlineVec<SubFloor, 4> floors;
  const auto floor_of = [&](u32 sub) {
    for (const SubFloor& f : floors) {
      if (f.sub == sub) return f.id;
    }
    return u64{0};
  };
  for (;;) {
    read_ready_.clear();
    bitmap_for_each(subs_with_reads_, [&](u32 sub) {
      const bool idle = subarrays_[sub].idle_at(now);
      if (!idle && !cfg_.write_pausing) return;
      const u32 id = read_cursor(sub, floor_of(sub));
      if (id != kNilIndex) read_ready_.push_back({id, sub, !idle});
    });
    if (read_ready_.empty()) break;
    std::sort(read_ready_.begin(), read_ready_.end(),
              [&](const ReadCursor& a, const ReadCursor& b) {
                return nodes_[a.node].req.id < nodes_[b.node].req.id;
              });
    // PALP holds reads back at issue time (a skipped cursor stays linked
    // and is re-collected next pass), so a pass that admits nothing must
    // terminate the loop — the stalled reads re-arm on the pump-unload
    // completion's dispatch. A failed pause request has no side effects,
    // so re-collecting it is harmless.
    bool progressed = false;
    for (const ReadCursor& cur : read_ready_) {
      const u32 sub = cur.sub;
      const u32 bank = sub / map_.subarrays_per_bank();
      if (cur.pause) {
        if (try_pause(bank, sub) && subarrays_[sub].idle_at(now)) {
          floors.push_back({sub, nodes_[cur.node].req.id});
          progressed = true;
          break;
        }
        continue;
      }
      if (palp_on_ && !palp_read_admissible(bank, now)) {
        note_palp_stall(bank, now);
        continue;
      }
      unlink_read(cur.node);
      issue_read(take_node(cur.node));
      progressed = true;
      notify_space();
      if (subarrays_[sub].idle_at(now)) break;
    }
    if (!progressed) break;
  }
}

void Controller::dispatch_writes(Tick now) {
  // One cursor per ready bank (idle, unpaused, non-empty bucket), then a
  // k-way min-selection by age. Issuing on one bank never invalidates
  // another bank's cursor within a dispatch — distinct banks own
  // disjoint subarrays — so only the issuing bank's cursor is refreshed.
  //
  // A gap move is the exception: it relocates a queued line and occupies
  // the migration's bank. An age-ordered sweep never revisits a write it
  // has passed, so after a single write whose issue moved the gap only
  // younger writes stay eligible this round (`floor`) and every cursor is
  // re-derived. After a batch the sweep restarts from the oldest write
  // (the reference's `begin()` restart), so the floor drops back to zero.
  struct Cursor {
    u32 node;
    u32 bank;
  };
  InlineVec<Cursor, 64> ready;
  u64 floor = 0;  // writes with id <= floor are ineligible this round
  const auto collect = [&] {
    ready.clear();
    bitmap_for_each(banks_with_writes_, [&](u32 bank) {
      if (!bank_ready_for_write(bank, now) || paused_write_[bank].has_value()) {
        return;
      }
      const u32 id =
          write_cursor(bank, write_by_bank_[bank].head(), now, floor);
      if (id != kNilIndex) ready.push_back({id, bank});
    });
  };
  collect();

  while (!ready.empty()) {
    // The strict policy stops the sweep the moment draining clears.
    if (!draining_ &&
        cfg_.drain != ControllerConfig::DrainPolicy::kOpportunistic) {
      break;
    }
    u32 best = 0;
    for (u32 i = 1; i < ready.size(); ++i) {
      if (nodes_[ready[i].node].req.id < nodes_[ready[best].node].req.id) {
        best = i;
      }
    }
    const Cursor cur = ready[best];
    ready[best] = ready[ready.size() - 1];
    ready.pop_back();

    const u32 bank = cur.bank;
    const u64 issued_id = nodes_[cur.node].req.id;
    const u64 gap_moves_before = c_gap_moves_.value();
    u32 resume_from = kNilIndex;
    // A multi-line batch packs against the full bank budget, so under
    // PALP it needs the pump exclusively; while partition writes are
    // drawing, fall back to issuing the candidate as a single write.
    const bool can_batch =
        cfg_.write_batch > 1 &&
        (!palp_on_ || pumps_[bank].can_admit_exclusive());
    if (can_batch) {
      // Batch formation walks only this bank's list: the candidate plus
      // its same-bank successors up to the batch limit, irrespective of
      // subarray state (matching the reference gather, which filters the
      // global queue by bank only). Under PALP the gather is spread-first:
      // prefer lines in distinct partitions (overlap-friendly schedules
      // leave the other partitions' sense amps free for reads), then fill
      // the remainder in age order. Start-Gap and stuck-bank runs keep
      // the age-order gather they were modeled with.
      std::vector<MemoryRequest> batch;
      if (palp_on_ && !cfg_.wear_leveling && !fault_remap_) {
        const u32 spb = map_.subarrays_per_bank();
        const u32 sub_base = bank * spb;
        InlineVec<u32, 64> chosen;
        InlineVec<u64, 4> seen;
        seen.resize((spb + 63) / 64, 0);
        const std::span<u64> smask{seen.data(), seen.size()};
        for (u32 id = cur.node;
             id != kNilIndex && chosen.size() < cfg_.write_batch;
             id = write_by_bank_[bank].next(nodes_, id)) {
          const u32 local = nodes_[id].sub - sub_base;
          if (bitmap_test(smask, local)) continue;
          bitmap_set(smask, local);
          chosen.push_back(id);
        }
        if (chosen.size() < cfg_.write_batch) {
          for (u32 id = cur.node;
               id != kNilIndex && chosen.size() < cfg_.write_batch;
               id = write_by_bank_[bank].next(nodes_, id)) {
            bool taken = false;
            for (const u32 c : chosen) {
              if (c == id) {
                taken = true;
                break;
              }
            }
            if (!taken) chosen.push_back(id);
          }
        }
        // Restore age order (node req ids are monotonic in arrival).
        std::sort(chosen.begin(), chosen.end(), [&](u32 a, u32 b) {
          return nodes_[a].req.id < nodes_[b].req.id;
        });
        for (const u32 id : chosen) {
          unlink_write(id);
          batch.push_back(take_node(id));
        }
        // Spread picking leaves skipped older entries on the list, so
        // the zero-latency re-derive below rescans from the head.
        resume_from = write_by_bank_[bank].head();
      } else {
        u32 id = cur.node;
        while (id != kNilIndex && batch.size() < cfg_.write_batch) {
          const u32 nxt = write_by_bank_[bank].next(nodes_, id);
          unlink_write(id);
          batch.push_back(take_node(id));
          id = nxt;
        }
        resume_from = id;
      }
      if (batch.size() > 1) {
        issue_write_batch(std::move(batch));
      } else {
        issue_write(std::move(batch.front()));
      }
    } else {
      resume_from = write_by_bank_[bank].next(nodes_, cur.node);
      unlink_write(cur.node);
      issue_write(take_node(cur.node));
    }
    notify_space();
    if (draining_ && write_age_.size() <= cfg_.drain_low_watermark) {
      set_draining(false);
    }

    if (c_gap_moves_.value() != gap_moves_before ||
        (can_batch && floor != 0)) {
      floor = can_batch ? 0 : issued_id;
      collect();
      continue;
    }
    // Normally the bank is now busy until the service completes and it
    // drops out of this round. A zero-latency service plan (e.g. a
    // preset scheme with no RESETs pending) leaves it idle, in which
    // case the age-ordered sweep would keep walking: re-derive this
    // bank's cursor from the issued node's successor (earlier entries
    // were unissuable, and nothing un-occupies within a dispatch).
    // Under PALP the bank re-arms whenever the pump still has a free
    // way — that is the point: a second partition write can start while
    // the first is in flight.
    if (resume_from != kNilIndex && bank_ready_for_write(bank, now) &&
        !paused_write_[bank].has_value()) {
      const u32 id = write_cursor(bank, resume_from, now, floor);
      if (id != kNilIndex) ready.push_back({id, bank});
    }
  }
}

// -- Fault injection ------------------------------------------------------

void Controller::note_stuck_remap(Addr phys) {
  if (!fault_remap_) return;
  const u32 raw = map_.flat_bank(phys);
  const u32 eff = fault_->remap_bank(raw);
  if (eff == raw) return;
  c_stuck_remaps_.inc();
  if (trace::on<kFaultCat>()) {
    trace::emit_instant(kFaultCat, trace::Op::kStuckRemap, fault_track(cfg_.track_base),
                        sim_.now(), raw, eff);
  }
}

double Controller::begin_plan_scope(Tick now, u32 ways) {
  // A partition write plans against its share of the pump. `ways` is the
  // nominal divisor even when brown-out shrinks the admission allowance,
  // so the worst-case concurrent draw stays within brownout * budget.
  const double brownout = fault_ != nullptr ? fault_->budget_factor(now) : 1.0;
  const double factor = brownout / static_cast<double>(ways);
  if (factor != 1.0) scheme_.set_budget_scale(factor);
  if (brownout != 1.0) {
    c_brownout_writes_.inc();
    if (trace::on<kFaultCat>()) {
      trace::emit_instant(kFaultCat, trace::Op::kBrownoutWrite, fault_track(cfg_.track_base),
                          now, scheme_.effective_budget(),
                          pcm_.bank_power_budget());
    }
  }
  return factor;
}

void Controller::end_plan_scope(double factor) {
  if (factor != 1.0) scheme_.set_budget_scale(1.0);
}

// -- PALP admission -------------------------------------------------------

u32 Controller::palp_write_allowance(Tick now) const {
  if (fault_ == nullptr) return cfg_.palp.write_ways;
  // Brown-out shrinks the concurrent-partition allowance with the same
  // factor that shrinks the packing budget; at least one write way
  // always remains (the legacy serialized behavior).
  return fault_->palp_allowance(cfg_.palp.write_ways, now, 1);
}

u32 Controller::rww_allowance(Tick now) const {
  if (fault_ == nullptr) return cfg_.palp.max_rww_reads;
  // The read cap may shrink to zero: inside a deep brown-out reads wait
  // for the pump to unload entirely (completions re-trigger dispatch,
  // so no forward-progress risk).
  return fault_->palp_allowance(cfg_.palp.max_rww_reads, now, 0);
}

bool Controller::palp_read_admissible(u32 bank, Tick now) const {
  return pumps_[bank].can_admit_read(rww_allowance(now));
}

bool Controller::bank_ready_for_write(u32 bank, Tick now) const {
  if (!palp_on_) return banks_[bank].idle_at(now);
  return pumps_[bank].can_admit_write(palp_write_allowance(now));
}

void Controller::note_palp_stall(u32 bank, Tick now) {
  c_palp_pump_stalls_.inc();
  pumps_[bank].note_stall();
  if (trace::on<kPalpCat>()) {
    trace::emit_instant(kPalpCat, trace::Op::kPalpPumpStall,
                        palp_track(cfg_.track_base, bank), now,
                        pumps_[bank].rww_reads(),
                        pumps_[bank].active_writes());
  }
}

Tick Controller::apply_line_faults(LineSlot& slot, Addr phys,
                                   const schemes::ServicePlan& plan) {
  if (fault_ == nullptr) return 0;
  const u32 line_bits =
      store_.units_per_line() * pcm_.geometry.data_unit_bits;
  const fault::LineFaultOutcome out = fault_->plan_line_faults(
      phys, ++fault_seq_, plan, scheme_, slot.wear.bits_programmed,
      line_bits);
  if (out.attempts > 0) {
    energy_.add_write(out.retry_pulses);
    slot.record_retry(out.retry_pulses);
    c_fault_retries_.inc(out.attempts);
    if (trace::on<kFaultCat>()) {
      trace::emit_instant(kFaultCat, trace::Op::kFaultRetry, fault_track(cfg_.track_base),
                          sim_.now(), out.attempts, out.extra_latency);
    }
  }
  if (out.line_failed) {
    // Retries exhausted: surface the FailedLine stat (higher-level ECC's
    // problem) and keep going — resilience means not asserting here.
    c_failed_lines_.inc();
    if (trace::on<kFaultCat>()) {
      trace::emit_instant(kFaultCat, trace::Op::kLineFailed, fault_track(cfg_.track_base),
                          sim_.now(), out.failed_sets + out.failed_resets,
                          phys);
    }
  }
  return out.extra_latency;
}

// -- Device issue paths ---------------------------------------------------

void Controller::issue_read(MemoryRequest req) {
  const Tick now = sim_.now();
  const Addr phys = physical_of(req.addr);
  const u32 subarray = eff_sub(phys);
  const u32 bank = eff_bank(phys);
  note_stuck_remap(phys);
  const Tick service = scheme_.read_latency() + cfg_.read_bus_time;
  subarrays_[subarray].occupy(now, service);
  ++inflight_;
  c_reads_.inc();
  // A read admitted while the pump is loaded counts against PALP's
  // read-after-write-current limit until its data returns.
  bool rww = false;
  if (palp_on_ && pumps_[bank].loaded()) {
    rww = true;
    pumps_[bank].begin_rww_read();
    c_palp_overlap_reads_.inc();
    if (trace::on<kPalpCat>()) {
      trace::emit_instant(kPalpCat, trace::Op::kPalpReadOverlap,
                          palp_track(cfg_.track_base, bank), now, req.id,
                          pumps_[bank].active_writes());
    }
  }
  if (trace::on<kCat>()) {
    trace::emit_span(kCat, trace::Op::kReadService, sub_track(cfg_.track_base, subarray), now,
                     service, req.id);
  }
  note_row_activate(bank, phys);
  energy_.add_read(store_.units_per_line() * pcm_.geometry.data_unit_bits);

  req.start_tick = now;
  req.complete_tick = now + service;
  const double lat_ns = to_ns(req.complete_tick - req.enqueue_tick);
  a_read_latency_.add(lat_ns);
  h_read_latency_.add(static_cast<u64>(lat_ns));

  const u32 slot = acquire_read_slot(std::move(req));
  sim_.schedule_in(
      service,
      [this, slot, bank, rww] {
        --inflight_;
        if (rww) pumps_[bank].end_rww_read();
        const MemoryRequest done = take_read_slot(slot);
        if (on_read_) on_read_(done);
        schedule_dispatch();
      },
      sim::Priority::kDeviceComplete);
}

Tick Controller::charge_write(LineSlot& slot, Addr phys, u32 bank,
                              const schemes::ServicePlan& plan, Tick now) {
  c_writes_.inc();
  if (plan.silent) c_silent_.inc();
  c_flipped_units_.inc(plan.flipped_units);
  if (plan.enc.active) {
    c_enc_writes_.inc();
    c_enc_coded_units_.inc(plan.enc.coded_units);
    c_enc_tag_bits_.inc(plan.enc.tag_bits);
    if (trace::on<kEncodeCat>()) {
      trace::emit_instant(kEncodeCat, trace::Op::kEncodeLine,
                          encode_track(cfg_.track_base, bank), now,
                          plan.enc.coded_units, plan.enc.tag_bits);
    }
  }
  energy_.add_write(plan.programmed);
  if (plan.background.total() > 0) {
    energy_.add_write(plan.background);
    slot.record(plan.background);
  }
  if (plan.read_before_write) {
    energy_.add_read(store_.units_per_line() * pcm_.geometry.data_unit_bits);
  }
  slot.record(plan.programmed);
  const Tick retry = apply_line_faults(slot, phys, plan);
  a_write_units_.add(plan.write_units);
  if (plan.power_util > 0.0) a_power_util_.add(plan.power_util);
  note_row_activate(bank, phys);
  return retry;
}

void Controller::issue_write(MemoryRequest req) {
  const Tick now = sim_.now();
  const Addr phys = physical_of(req.addr);
  const u32 bank = eff_bank(phys);
  const u32 subarray = eff_sub(phys);

  Tick service = 0;
  {  // plan scope: trace context and brown-out budget of this write only
    note_stuck_remap(phys);
    LineSlot& slot = store_.slot(phys);
    // The context hands the analysis stage (packer, FSM expansion) an
    // absolute time base + bank track for its own emissions.
    trace::ScopedContext tctx(now, bank_track(cfg_.track_base, bank));
    // Writes planned inside a charge-pump brown-out window pack against
    // the shrunken budget; the scope stays open through the fault pricing
    // so retry sub-requests see the same budget. PALP additionally
    // divides the budget across the pump's write ways, since other
    // partitions may start drawing while this write is in flight.
    const double bscale =
        begin_plan_scope(now, palp_on_ ? cfg_.palp.write_ways : 1);
    const schemes::ServicePlan plan = scheme_.plan_write(slot.buf, req.data);
    service = plan.latency + charge_write(slot, phys, bank, plan, now);
    end_plan_scope(bscale);
  }
  a_write_service_.add(to_ns(service));

  // The one fork is bank occupancy. A pausable write holds the whole
  // bank; a partition write's interval may overlap other partitions'
  // writes, which the pump admitted as further ways.
  if (palp_on_) {
    banks_[bank].occupy_overlapping(now, service);
  } else {
    banks_[bank].occupy(now, service);
  }
  subarrays_[subarray].occupy(now, service);
  ++inflight_;
  if (trace::on<kCat>()) {
    trace::emit_span(kCat, trace::Op::kWriteService, bank_track(cfg_.track_base, bank), now,
                     service, req.id);
  }
  if (palp_on_) {
    pcm::ChargePump& pump = pumps_[bank];
    const bool overlapped = pump.active_writes() > 0;
    pump.begin_write();
    if (overlapped) c_palp_write_overlaps_.inc();
    if (trace::on<kPalpCat>()) {
      trace::emit_span(kPalpCat, trace::Op::kPalpWriteSpan,
                       palp_track(cfg_.track_base, bank), now, service,
                       subarray);
      if (overlapped) {
        trace::emit_instant(kPalpCat, trace::Op::kPalpWriteOverlap,
                            palp_track(cfg_.track_base, bank), now, req.id,
                            pump.active_writes());
      }
    }
  }
  const Addr logical = req.addr;
  start_write(bank, subarray, std::move(req), service);
  advance_start_gap(logical);
}

void Controller::start_write(u32 bank, u32 subarray, MemoryRequest req,
                             Tick service) {
  TW_ASSERT(palp_on_ || live_writes_[bank].empty());
  const Tick now = sim_.now();
  const u64 epoch = ++bank_epoch_[bank];
  ActiveWrite active;
  active.req = std::move(req);
  active.start = now;
  active.end = now + service;
  active.epoch = epoch;
  active.service = service;
  active.subarray = subarray;
  live_writes_[bank].push_back(std::move(active));
  sim_.schedule_in(
      service, [this, bank, epoch] { complete_write(bank, epoch); },
      sim::Priority::kDeviceComplete);
}

void Controller::issue_write_batch(std::vector<MemoryRequest> reqs) {
  TW_EXPECTS(reqs.size() >= 2);
  const Tick now = sim_.now();
  const u32 bank = eff_bank(physical_of(reqs.front().addr));

  // Scratch for the scheme call: batches are bounded by write_batch
  // (small), so these stay in inline storage on the steady-state path.
  InlineVec<LineSlot*, 16> slots;
  InlineVec<pcm::LineBuf*, 16> lines;
  InlineVec<pcm::LogicalLine, 16> datas;
  InlineVec<Addr, 16> phys;
  for (const auto& r : reqs) {
    const Addr p = physical_of(r.addr);
    TW_ASSERT(eff_bank(p) == bank);
    phys.push_back(p);
    slots.push_back(&store_.slot(p));  // stable: DataStore never moves lines
    lines.push_back(&slots.back()->buf);
    datas.push_back(r.data);
  }

  trace::ScopedContext tctx(now, bank_track(cfg_.track_base, bank));
  const double bscale = begin_plan_scope(now, 1);
  // Under PALP the scheme sees which partition each line lands in, so
  // partition-aware packers can record (and tests can assert on) the
  // spread the controller's gather produced.
  InlineVec<u32, 16> parts;
  if (palp_on_) {
    const u32 sub_base0 = bank * map_.subarrays_per_bank();
    for (const Addr p : phys) parts.push_back(eff_sub(p) - sub_base0);
  }
  const schemes::BatchServicePlan batch =
      palp_on_ ? scheme_.plan_write_batch({lines.data(), lines.size()},
                                          {datas.data(), datas.size()},
                                          {parts.data(), parts.size()})
               : scheme_.plan_write_batch({lines.data(), lines.size()},
                                          {datas.data(), datas.size()});
  TW_ASSERT(batch.per_line.size() == reqs.size());
  // Batch-occupancy metrics: how many lines actually shared one packed
  // schedule and how full that schedule was (0 for serializing schemes).
  a_batch_lines_.add(static_cast<double>(reqs.size()));
  if (batch.packed_lines > 0 && batch.occupancy > 0.0) {
    a_batch_occupancy_.add(batch.occupancy);
  }

  // Fault pricing extends the whole batch's bank occupancy: the retry
  // sub-requests of every member line run on the shared charge pump.
  Tick fault_extra = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    note_stuck_remap(phys[i]);
    c_batched_.inc();
    fault_extra +=
        charge_write(*slots[i], phys[i], bank, batch.per_line[i], now);
    advance_start_gap(reqs[i].addr);
  }
  end_plan_scope(bscale);
  const Tick batch_service = batch.latency + fault_extra;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    a_write_service_.add(to_ns(batch_service));
  }

  Tick start = std::max(now, banks_[bank].free_at());
  // Distinct subarrays touched by the batch, as a bank-local bitmap
  // (replaces the old std::find over a growing vector).
  const u32 spb = map_.subarrays_per_bank();
  const u32 sub_base = bank * spb;
  InlineVec<u64, 4> sub_mask;
  sub_mask.resize((spb + 63) / 64, 0);
  const std::span<u64> mask{sub_mask.data(), sub_mask.size()};
  for (const Addr p : phys) {
    const u32 local = eff_sub(p) - sub_base;
    if (!bitmap_test(mask, local)) {
      bitmap_set(mask, local);
      start = std::max(start, subarrays_[sub_base + local].free_at());
    }
  }
  banks_[bank].occupy(start, batch_service);
  u32 spread = 0;
  bitmap_for_each(mask, [&](u32 local) {
    subarrays_[sub_base + local].occupy(start, batch_service);
    ++spread;
  });
  ++inflight_;
  if (palp_on_) {
    // A full-budget batch owns the pump until it completes: partition
    // writes and capped reads both see loaded() for its duration.
    pumps_[bank].begin_exclusive();
    a_palp_batch_spread_.add(static_cast<double>(spread));
    if (trace::on<kPalpCat>()) {
      trace::emit_instant(kPalpCat, trace::Op::kPalpBatchSpread,
                          palp_track(cfg_.track_base, bank), start,
                          reqs.size(), spread);
      trace::emit_span(kPalpCat, trace::Op::kPalpWriteSpan,
                       palp_track(cfg_.track_base, bank), start,
                       batch_service, spread);
    }
  }
  if (trace::on<kCat>()) {
    trace::emit_span(kCat, trace::Op::kBatchService, bank_track(cfg_.track_base, bank), start,
                     batch_service, reqs.size());
  }
  const Tick done_in = start + batch_service - now;
  sim_.schedule_in(
      done_in,
      [this, bank, reqs = std::move(reqs)]() mutable {
        --inflight_;
        if (palp_on_) pumps_[bank].end_exclusive();
        for (auto& r : reqs) finish_write(r);
        schedule_dispatch();
      },
      sim::Priority::kDeviceComplete);
}

void Controller::advance_start_gap(Addr logical_line_addr) {
  if (!cfg_.wear_leveling) return;
  const u64 region =
      map_.line_index(logical_line_addr) / cfg_.start_gap.region_lines;
  if (const auto move = leveler_for(region).on_write()) {
    apply_gap_move(region, *move);
  }
}

void Controller::apply_gap_move(u64 region, const GapMove& move) {
  const u64 n = cfg_.start_gap.region_lines;
  const Addr src = (region * (n + 1) + move.from_physical) * map_.line_bytes();
  const Addr dst = (region * (n + 1) + move.to_physical) * map_.line_bytes();

  const pcm::LogicalLine content = store_.read_logical(src);
  LineSlot& dst_slot = store_.slot(dst);
  const double bscale = begin_plan_scope(sim_.now(), 1);
  const schemes::ServicePlan plan = scheme_.plan_write(dst_slot.buf, content);
  energy_.add_write(plan.programmed);
  dst_slot.record(plan.programmed);
  const Tick gap_service =
      plan.latency + apply_line_faults(dst_slot, dst, plan);
  end_plan_scope(bscale);
  c_gap_moves_.inc();

  const u32 bank = eff_bank(dst);
  if (trace::on<kCat>()) {
    trace::emit_instant(kCat, trace::Op::kGapMove, bank_track(cfg_.track_base, bank),
                        sim_.now(), region, gap_service);
  }
  const u32 subarray = eff_sub(dst);
  note_row_activate(bank, dst);
  const Tick start = std::max({sim_.now(), banks_[bank].free_at(),
                               subarrays_[subarray].free_at()});
  banks_[bank].occupy(start, gap_service);
  subarrays_[subarray].occupy(start, gap_service);
  const Tick done_in = start + gap_service - sim_.now();
  sim_.schedule_in(done_in, [this] { schedule_dispatch(); },
                   sim::Priority::kDeviceComplete);

  requeue_moved_line(src, dst);
  if (verify_index_) check_queue_index();
}

void Controller::complete_write(u32 bank, u64 epoch) {
  auto& live = live_writes_[bank];
  const auto it =
      std::find_if(live.begin(), live.end(),
                   [epoch](const ActiveWrite& w) { return w.epoch == epoch; });
  if (it == live.end()) {
    // The event of a write that was paused since; PALP never pauses.
    TW_ASSERT(!palp_on_);
    return;
  }
  MemoryRequest req = std::move(it->req);
  const Tick service = it->service;
  live.erase(it);
  if (palp_on_) pumps_[bank].end_write();
  --inflight_;
  if (trace::on<kCat>()) {
    trace::emit_instant(kCat, trace::Op::kWriteComplete, bank_track(cfg_.track_base, bank),
                        sim_.now(), req.id, service);
  }
  finish_write(req);
  schedule_dispatch();
}

void Controller::finish_write(MemoryRequest& req) {
  req.complete_tick = sim_.now();
  const double lat_ns = to_ns(req.complete_tick - req.enqueue_tick);
  a_write_latency_.add(lat_ns);
  h_write_latency_.add(static_cast<u64>(lat_ns));
  if (on_write_) on_write_(req);
}

bool Controller::try_pause(u32 bank, u32 wanted_subarray) {
  // Pausing excludes PALP, so a pausable bank has at most one live write.
  auto& live = live_writes_[bank];
  if (live.empty() || paused_write_[bank].has_value()) return false;
  ActiveWrite& active = live.front();
  if (active.subarray != wanted_subarray) return false;
  if (banks_[bank].free_at() != active.end) return false;
  if (subarrays_[active.subarray].free_at() != active.end) return false;

  const Tick now = sim_.now();
  const Tick elapsed = now - active.start;
  const Tick boundary =
      active.start +
      ceil_div(elapsed, cfg_.pause_quantum) * cfg_.pause_quantum;
  if (boundary >= active.end) return false;

  banks_[bank].preempt(boundary);
  subarrays_[active.subarray].preempt(boundary);
  if (trace::on<kCat>()) {
    trace::emit_instant(kCat, trace::Op::kWritePause, bank_track(cfg_.track_base, bank),
                        boundary, active.req.id, active.end - boundary);
  }
  PausedWrite paused;
  paused.req = std::move(active.req);
  paused.remaining = active.end - boundary;
  paused.subarray = active.subarray;
  paused_write_[bank] = std::move(paused);
  live.clear();
  ++bank_epoch_[bank];
  ++paused_count_;
  c_pauses_.inc();

  sim_.schedule_at(boundary, [this] { schedule_dispatch(); },
                   sim::Priority::kController);
  return true;
}

void Controller::resume_paused(u32 bank) {
  TW_ASSERT(paused_write_[bank].has_value());
  const Tick now = sim_.now();
  PausedWrite paused = std::move(*paused_write_[bank]);
  paused_write_[bank].reset();
  --paused_count_;

  banks_[bank].occupy(now, paused.remaining);
  subarrays_[paused.subarray].occupy(now, paused.remaining);
  if (trace::on<kCat>()) {
    trace::emit_instant(kCat, trace::Op::kWriteResume, bank_track(cfg_.track_base, bank), now,
                        paused.req.id, paused.remaining);
  }
  start_write(bank, paused.subarray, std::move(paused.req), paused.remaining);
}

void Controller::notify_space() {
  if (!on_space_ || space_scheduled_) return;
  space_scheduled_ = true;
  sim_.schedule_in(
      0,
      [this] {
        space_scheduled_ = false;
        if (on_space_) on_space_();
      },
      sim::Priority::kCpu);
}

}  // namespace tw::mem

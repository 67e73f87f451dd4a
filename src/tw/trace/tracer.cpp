#include "tw/trace/tracer.hpp"

#include <algorithm>
#include <cstring>

namespace tw::trace {

// TW_GIT_SHA is injected by the build (root CMakeLists.txt runs
// `git rev-parse --short HEAD` at configure time); fall back so tarball
// builds still produce valid manifests.
#ifndef TW_GIT_SHA
#define TW_GIT_SHA "unknown"
#endif

const char* build_git_sha() { return TW_GIT_SHA; }

const char* op_name(Op op) {
  switch (op) {
    case Op::kEventFire: return "event_fire";
    case Op::kReadEnqueue: return "read_enqueue";
    case Op::kWriteEnqueue: return "write_enqueue";
    case Op::kReadForward: return "read_forward";
    case Op::kWriteCoalesce: return "write_coalesce";
    case Op::kReadService: return "read_service";
    case Op::kWriteService: return "write_service";
    case Op::kBatchService: return "batch_service";
    case Op::kWriteComplete: return "write_complete";
    case Op::kDrainStart: return "drain_start";
    case Op::kDrainEnd: return "drain_end";
    case Op::kWritePause: return "write_pause";
    case Op::kWriteResume: return "write_resume";
    case Op::kGapMove: return "gap_move";
    case Op::kDispatch: return "dispatch";
    case Op::kSetPulse: return "set_pulse";
    case Op::kResetPulse: return "reset_pulse";
    case Op::kLineWrite: return "line_write";
    case Op::kWrite1Pack: return "write1_pack";
    case Op::kWrite0Steal: return "write0_steal";
    case Op::kWrite0Trail: return "write0_trail";
    case Op::kBatchPack: return "batch_pack";
    case Op::kCacheMiss: return "cache_miss";
    case Op::kCacheWriteback: return "cache_writeback";
    case Op::kGauge: return "gauge";
    case Op::kFaultRetry: return "fault_retry";
    case Op::kLineFailed: return "line_failed";
    case Op::kBrownoutWrite: return "brownout_write";
    case Op::kStuckRemap: return "stuck_remap";
    case Op::kPalpWriteSpan: return "palp_write_span";
    case Op::kPalpReadOverlap: return "palp_read_overlap";
    case Op::kPalpPumpStall: return "palp_pump_stall";
    case Op::kPalpWriteOverlap: return "palp_write_overlap";
    case Op::kPalpBatchSpread: return "palp_batch_spread";
    case Op::kDramHit: return "dram_hit";
    case Op::kDramMiss: return "dram_miss";
    case Op::kDramWriteback: return "dram_writeback";
    case Op::kDramCleanEvict: return "dram_clean_evict";
    case Op::kDramGroupEvict: return "dram_group_evict";
    case Op::kEncodeLine: return "encode_line";
  }
  return "unknown";
}

const char* category_name(Category c) {
  switch (c) {
    case Category::kKernel: return "kernel";
    case Category::kController: return "controller";
    case Category::kFsm: return "fsm";
    case Category::kPacker: return "packer";
    case Category::kCache: return "cache";
    case Category::kMetrics: return "metrics";
    case Category::kFault: return "fault";
    case Category::kPalp: return "palp";
    case Category::kDram: return "dram";
    case Category::kEncode: return "encode";
  }
  return "unknown";
}

const char* track_domain_name(Track t) {
  switch (t) {
    case Track::kKernel: return "kernel";
    case Track::kBank: return "bank";
    case Track::kSubarray: return "subarray";
    case Track::kFsm0: return "fsm0_reset";
    case Track::kFsm1: return "fsm1_set";
    case Track::kCore: return "core";
    case Track::kQueue: return "queue";
    case Track::kPacker: return "packer";
    case Track::kCache: return "cache";
    case Track::kMetrics: return "metrics";
    case Track::kFault: return "fault";
    case Track::kPalp: return "palp";
    case Track::kDram: return "dram";
    case Track::kEncode: return "encode";
  }
  return "unknown";
}

u32 parse_categories(const char* csv) {
  if (csv == nullptr || *csv == '\0') return kAllCategories;
  u32 mask = 0;
  const char* p = csv;
  while (*p != '\0') {
    const char* end = p;
    while (*end != '\0' && *end != ',') ++end;
    const std::size_t len = static_cast<std::size_t>(end - p);
    auto is = [&](const char* name) {
      return std::strlen(name) == len && std::strncmp(p, name, len) == 0;
    };
    if (is("all")) {
      mask |= kAllCategories;
    } else if (is("none")) {
      mask = 0;
    } else {
      for (u32 i = 0; i < kCategoryCount; ++i) {
        const auto c = static_cast<Category>(i);
        if (is(category_name(c))) mask |= category_bit(c);
      }
    }
    p = (*end == ',') ? end + 1 : end;
  }
  return mask;
}

void append_category_list(u32 mask, char* buf, unsigned long buf_size) {
  if (buf_size == 0) return;
  std::size_t pos = 0;
  buf[0] = '\0';
  for (u32 i = 0; i < kCategoryCount; ++i) {
    const auto c = static_cast<Category>(i);
    if ((mask & category_bit(c)) == 0) continue;
    const char* name = category_name(c);
    const std::size_t need = std::strlen(name) + (pos > 0 ? 1 : 0);
    if (pos + need + 1 > buf_size) break;
    if (pos > 0) buf[pos++] = ',';
    std::memcpy(buf + pos, name, std::strlen(name));
    pos += std::strlen(name);
    buf[pos] = '\0';
  }
}

TraceRing& Tracer::ring_for_current_thread() {
  std::lock_guard<std::mutex> lock(mu_);
  rings_.push_back(std::make_unique<TraceRing>(ring_capacity_));
  return *rings_.back();
}

std::vector<TraceRecord> Tracer::collect() const {
  std::vector<TraceRecord> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& r : rings_) r->collect(out);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     return a.tick < b.tick;
                   });
  return out;
}

u64 Tracer::total_pushed() const {
  std::lock_guard<std::mutex> lock(mu_);
  u64 n = 0;
  for (const auto& r : rings_) n += r->pushed();
  return n;
}

u64 Tracer::total_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  u64 n = 0;
  for (const auto& r : rings_) n += r->dropped();
  return n;
}

}  // namespace tw::trace

#pragma once
// Structured trace records: the fixed 32-byte unit of the observability
// layer. Every instrumented component (kernel, controller, write pipeline,
// cache) emits these into a per-thread ring (tw/trace/ring.hpp) through the
// thread-local emission state (tw/trace/emit.hpp); sinks turn collected
// records into Chrome trace_event JSON or metrics CSVs.
//
// Categories are a bitmask with two gates:
//  * compile time — TW_TRACE_COMPILED_MASK (default: everything). A
//    category compiled out folds its emission sites away entirely.
//  * runtime — the per-thread mask installed by Tracer::Attach. A category
//    compiled in but not enabled costs exactly one thread-local load and
//    one predicted-not-taken branch per emission site.

#include "tw/common/types.hpp"

namespace tw::trace {

/// Emission categories (bit positions in the category masks).
enum class Category : u8 {
  kKernel = 0,      ///< event kernel: one record per dispatched event
  kController = 1,  ///< memory controller: enqueue/issue/complete/drain
  kFsm = 2,         ///< write pipeline: SET/RESET pulse spans, line writes
  kPacker = 3,      ///< analysis stage: packing decisions, interspace steals
  kCache = 4,       ///< cache hierarchy: misses, writebacks
  kMetrics = 5,     ///< periodic metrics snapshots (counter tracks)
  kFault = 6,       ///< fault injection: retries, failed lines, brown-outs
  kPalp = 7,        ///< partition-level parallelism: occupancy, overlaps
  kDram = 8,        ///< DRAM front tier: hits, misses, writeback groups
  kEncode = 9,      ///< content-encoder pre-stage: coded units, tag pulses
};
inline constexpr u32 kCategoryCount = 10;

constexpr u32 category_bit(Category c) { return 1u << static_cast<u32>(c); }

/// All categories enabled.
inline constexpr u32 kAllCategories = (1u << kCategoryCount) - 1;

// Compile-time category mask: -DTW_TRACE_COMPILED_MASK=0 strips every
// emission site from the build (used to measure the hooks' cost).
#ifndef TW_TRACE_COMPILED_MASK
#define TW_TRACE_COMPILED_MASK 0xFFFFFFFFu
#endif
inline constexpr u32 kCompiledMask = TW_TRACE_COMPILED_MASK;

constexpr bool category_compiled(Category c) {
  return (kCompiledMask & category_bit(c)) != 0;
}

/// What a record represents (mirrors Chrome trace_event phases).
enum class Kind : u8 {
  kInstant = 0,  ///< a point event; args carry the payload
  kSpan = 1,     ///< a duration event: arg1 = duration in ticks
  kCounter = 2,  ///< a sampled value: arg0 = bit-cast double
};

/// The operation a record describes. One namespace across categories so a
/// record is self-describing without a per-category table.
enum class Op : u16 {
  // kKernel
  kEventFire = 0,  ///< one kernel event dispatched (arg0 = executed count)
  // kController
  kReadEnqueue = 16,    ///< read accepted into the read queue
  kWriteEnqueue = 17,   ///< write accepted into the write queue
  kReadForward = 18,    ///< read served from queued write data
  kWriteCoalesce = 19,  ///< write merged into a queued same-line write
  kReadService = 20,    ///< span: read occupying its subarray
  kWriteService = 21,   ///< span: write occupying its bank
  kBatchService = 22,   ///< span: multi-line batched write on a bank
  kWriteComplete = 23,  ///< write left service (pause-split aware)
  kDrainStart = 24,     ///< controller entered write-drain mode
  kDrainEnd = 25,       ///< controller left write-drain mode
  kWritePause = 26,     ///< in-service write preempted at a unit boundary
  kWriteResume = 27,    ///< paused write resumed (arg1 = remaining ticks)
  kGapMove = 28,        ///< Start-Gap migration write (arg0 = region)
  kDispatch = 29,       ///< scheduling round (arg0 = read q, arg1 = write q)
  // kFsm
  kSetPulse = 32,    ///< span: FSM1 driving one data unit's SETs
  kResetPulse = 33,  ///< span: FSM0 driving one data unit's RESETs
  kLineWrite = 34,   ///< span: one full hardware-level line write
  // kPacker
  kWrite1Pack = 48,   ///< write-1 placed into a write unit
  kWrite0Steal = 49,  ///< write-0 stole an interspace sub-slot
  kWrite0Trail = 50,  ///< write-0 appended a trailing sub-slot
  kBatchPack = 51,    ///< multi-line joint pack (arg0 = lines,
                      ///< arg1 = occupancy in per-mille of budget)
  // kCache
  kCacheMiss = 64,       ///< missed every level: demand PCM read
  kCacheWriteback = 65,  ///< dirty line cascaded out to PCM
  // kMetrics
  kGauge = 80,  ///< one sampled gauge value (counter kind)
  // kFault
  kFaultRetry = 96,     ///< verify-and-retry ladder ran (arg0 = attempts,
                        ///< arg1 = extra service ticks)
  kLineFailed = 97,     ///< retries exhausted; line surfaced as FailedLine
  kBrownoutWrite = 98,  ///< write planned inside a brown-out window
                        ///< (arg0 = scaled budget, arg1 = nominal budget)
  kStuckRemap = 99,     ///< service redirected off a stuck bank
                        ///< (arg0 = stuck bank, arg1 = healthy target)
  // kPalp
  kPalpWriteSpan = 112,     ///< span: partition write drawing on the pump
                            ///< (arg0 = partition / batch spread)
  kPalpReadOverlap = 113,   ///< read admitted while the pump is loaded
                            ///< (arg0 = req id, arg1 = active writes)
  kPalpPumpStall = 114,     ///< read held back by the RWW cap
                            ///< (arg0 = rww reads, arg1 = active writes)
  kPalpWriteOverlap = 115,  ///< partition write started while another draws
                            ///< (arg0 = req id, arg1 = active writes)
  kPalpBatchSpread = 116,   ///< batch gathered under PALP (arg0 = lines,
                            ///< arg1 = distinct partitions)
  // kDram
  kDramHit = 128,         ///< request absorbed by the tier (arg0 = line,
                          ///< arg1 = 1 for writes)
  kDramMiss = 129,        ///< tier miss (arg0 = line, arg1 = 1 for writes)
  kDramWriteback = 130,   ///< dirty victim queued toward PCM (arg0 = line)
  kDramCleanEvict = 131,  ///< clean victim dropped, no PCM traffic
                          ///< (arg0 = line)
  kDramGroupEvict = 132,  ///< MAC same-bank dirty group written back
                          ///< (arg0 = lines, arg1 = flat PCM bank)
  // kEncode
  kEncodeLine = 144,  ///< encoder pre-stage transformed a line write
                      ///< (arg0 = units stored coded, arg1 = tag pulses)
};

/// Visualization track domains (Chrome pid); the low 24 bits of a track id
/// select the instance (Chrome tid).
enum class Track : u8 {
  kKernel = 0,
  kBank = 1,
  kSubarray = 2,
  kFsm0 = 3,
  kFsm1 = 4,
  kCore = 5,
  kQueue = 6,  ///< 0 = read queue, 1 = write queue
  kPacker = 7,
  kCache = 8,
  kMetrics = 9,
  kFault = 10,
  kPalp = 11,  ///< per-bank pump occupancy (PALP)
  kDram = 12,    ///< per-channel DRAM front tier activity
  kEncode = 13,  ///< per-bank encoder pre-stage activity
};
inline constexpr u32 kTrackDomains = 14;

constexpr u32 track_id(Track domain, u32 index) {
  return (static_cast<u32>(domain) << 24) | (index & 0x00FFFFFFu);
}
constexpr Track track_domain(u32 id) { return static_cast<Track>(id >> 24); }
constexpr u32 track_index(u32 id) { return id & 0x00FFFFFFu; }

/// One trace record. Exactly 32 bytes so a ring slot is two cache lines of
/// sixteen records and wrap arithmetic is a shift.
struct TraceRecord {
  Tick tick = 0;  ///< absolute simulated time (ps)
  u64 arg0 = 0;   ///< op-specific payload
  u64 arg1 = 0;   ///< op-specific payload; duration (ticks) for kSpan
  u32 track = 0;  ///< visualization track (see track_id)
  Op op = Op::kEventFire;
  Category category = Category::kKernel;
  Kind kind = Kind::kInstant;
};
static_assert(sizeof(TraceRecord) == 32);

/// Stable short name of an operation (Chrome event name).
const char* op_name(Op op);
/// Stable short name of a category (Chrome "cat" field; CLI spelling).
const char* category_name(Category c);
/// Stable name of a track domain (Chrome process name).
const char* track_domain_name(Track t);

/// Parse a comma-separated category list ("controller,fsm", "all",
/// "none") into a mask. Unknown names are ignored; returns kAllCategories
/// for an empty string.
u32 parse_categories(const char* csv);
/// Render a mask back to the comma-separated spelling.
// (Defined in tracer.cpp with the other string tables.)
void append_category_list(u32 mask, char* buf, unsigned long buf_size);

}  // namespace tw::trace

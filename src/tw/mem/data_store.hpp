#pragma once
// Sparse physical line store for the PCM main memory: the one home of
// per-line state.
//
// Each line ever touched owns one arena slot holding its *physical*
// content (cell words + flip tags) and its wear ledger (line writes and
// programmed bits, the endurance input of RunMetrics.bits_per_write and
// of the fault model's wear knee). Untouched lines are materialized on
// first access with deterministic pseudo-random content derived from
// (seed, line address), so simulations are reproducible regardless of
// access order; reading an untouched line's wear does not materialize it.
//
// Storage is a FlatIndexMap (open-addressing, no per-entry allocation)
// over a chunked arena of slots: references returned by slot()/line()
// stay valid for the store's lifetime — growth adds chunks, it never
// moves existing lines (unlike unordered_map, this is guaranteed by
// layout, not by rehash accident).

#include <memory>
#include <vector>

#include "tw/common/bits.hpp"
#include "tw/common/flat_map.hpp"
#include "tw/common/rng.hpp"
#include "tw/common/types.hpp"
#include "tw/pcm/line.hpp"
#include "tw/pcm/wear.hpp"

namespace tw::mem {

/// One line's state: its physical content and its wear ledger.
struct LineSlot {
  pcm::LineBuf buf;
  pcm::LineWear wear;

  /// Record a line write that programmed the given transitions.
  void record(const BitTransitions& t) {
    wear.writes += 1;
    wear.bits_programmed += t.total();
  }

  /// Record extra pulses that did not constitute a new line write —
  /// fault-injection retry re-drives. Wear accrues (the pulses were
  /// driven) but the service count, and with it bits-per-write, does not.
  void record_retry(const BitTransitions& t) {
    wear.bits_programmed += t.total();
  }
};

/// Sparse map from line address to line state.
class DataStore {
 public:
  /// `units_per_line`: data units per cache line; `seed` drives the
  /// deterministic first-touch content; `ones_bias` is the probability
  /// that a first-touch cell holds '1' (SET-dominant workloads start
  /// zero-rich, see WorkloadProfile::initial_ones_fraction).
  DataStore(u32 units_per_line, u64 seed, double ones_bias = 0.5)
      : units_(units_per_line), seed_(seed), ones_bias_(ones_bias) {}

  /// Content and wear of a line (materialized on first touch). The
  /// reference stays valid for the lifetime of the store.
  LineSlot& slot(Addr line_addr);

  /// Mutable physical state of a line (materialized on first touch).
  pcm::LineBuf& line(Addr line_addr) { return slot(line_addr).buf; }

  /// Read-only logical view of a line (materializes on first touch).
  /// Routed through the installed decoder when the write scheme stores a
  /// transformed image (content-encoder pre-stage); the default is the
  /// plain flip-tag inversion of LogicalLine::from_physical.
  pcm::LogicalLine read_logical(Addr line_addr) {
    pcm::LineBuf& l = line(line_addr);
    if (decoder_fn_ != nullptr) return decoder_fn_(decoder_ctx_, l);
    return pcm::LogicalLine::from_physical(l);
  }

  /// Install the logical-view decoder (the Controller wires the scheme's
  /// decode_stored here when the scheme transforms stored content). A raw
  /// context + function pair rather than std::function: read_logical sits
  /// on the generator/gap-move hot path and must stay alloc-free.
  using Decoder = pcm::LogicalLine (*)(const void* ctx, const pcm::LineBuf&);
  void set_decoder(const void* ctx, Decoder fn) {
    decoder_ctx_ = ctx;
    decoder_fn_ = fn;
  }

  /// True if the line has been materialized.
  bool touched(Addr line_addr) const {
    return index_.find(line_addr) != FlatIndexMap::kNoIndex;
  }

  /// Wear of one line; zero, and not materialized, if untouched.
  pcm::LineWear wear(Addr line_addr) const;

  /// Wear over the lines written at least once (a line that was only
  /// read is materialized but not counted in lines_touched).
  pcm::WearSummary wear_summary() const;

  std::size_t lines_touched() const { return index_.size(); }
  u32 units_per_line() const { return units_; }

 private:
  static constexpr u32 kChunkShift = 9;  ///< 512 lines per arena chunk
  static constexpr u32 kChunkLines = 1u << kChunkShift;
  static constexpr u32 kChunkMask = kChunkLines - 1;

  LineSlot& at(u32 idx) {
    return chunks_[idx >> kChunkShift][idx & kChunkMask];
  }
  const LineSlot& at(u32 idx) const {
    return chunks_[idx >> kChunkShift][idx & kChunkMask];
  }
  pcm::LineBuf materialize(Addr line_addr) const;

  u32 units_;
  u64 seed_;
  double ones_bias_;
  const void* decoder_ctx_ = nullptr;
  Decoder decoder_fn_ = nullptr;
  FlatIndexMap index_;
  std::vector<std::unique_ptr<LineSlot[]>> chunks_;
  u32 arena_size_ = 0;  ///< lines stored across all chunks
};

/// Read-only view of a store's wear ledger (Controller::wear()).
class WearView {
 public:
  explicit WearView(const DataStore& store) : store_(&store) {}
  pcm::WearSummary summary() const { return store_->wear_summary(); }
  pcm::LineWear line(Addr line_addr) const { return store_->wear(line_addr); }

 private:
  const DataStore* store_;
};

}  // namespace tw::mem

#include "tw/mem/data_store.hpp"

namespace tw::mem {

pcm::LineBuf DataStore::materialize(Addr line_addr) const {
  // Deterministic per-line content: hash (seed, addr) into a short
  // SplitMix64 stream. Tags start clear (factory state).
  SplitMix64 sm(seed_ ^ (line_addr * 0x9E3779B97F4A7C15ull) ^ line_addr);
  pcm::LineBuf buf(units_);
  if (ones_bias_ == 0.5) {
    for (u32 i = 0; i < units_; ++i) buf.set_cell(i, sm.next());
    return buf;
  }
  // Biased content: each cell is '1' with probability ones_bias_.
  const u64 threshold = static_cast<u64>(
      ones_bias_ * 18446744073709551615.0);  // bias * (2^64 - 1)
  for (u32 i = 0; i < units_; ++i) {
    u64 w = 0;
    for (u32 b = 0; b < 64; ++b) {
      if (sm.next() <= threshold) w |= (u64{1} << b);
    }
    buf.set_cell(i, w);
  }
  return buf;
}

LineSlot& DataStore::slot(Addr line_addr) {
  const u32 idx = index_.find(line_addr);
  if (idx != FlatIndexMap::kNoIndex) return at(idx);
  if ((arena_size_ >> kChunkShift) == chunks_.size()) {
    chunks_.push_back(std::make_unique<LineSlot[]>(kChunkLines));
  }
  const u32 idx_new = arena_size_++;
  LineSlot& s = at(idx_new);
  s.buf = materialize(line_addr);
  index_.insert(line_addr, idx_new);
  return s;
}

pcm::LineWear DataStore::wear(Addr line_addr) const {
  const u32 idx = index_.find(line_addr);
  return idx == FlatIndexMap::kNoIndex ? pcm::LineWear{} : at(idx).wear;
}

pcm::WearSummary DataStore::wear_summary() const {
  pcm::WearSummary s;
  for (u32 i = 0; i < arena_size_; ++i) {
    const pcm::LineWear& w = at(i).wear;
    if (w.writes == 0) continue;
    s.lines_touched += 1;
    s.total_writes += w.writes;
    s.total_bits += w.bits_programmed;
    if (w.bits_programmed > s.max_line_bits) s.max_line_bits = w.bits_programmed;
  }
  s.avg_bits_per_write =
      s.total_writes == 0 ? 0.0
                          : static_cast<double>(s.total_bits) /
                                static_cast<double>(s.total_writes);
  return s;
}

}  // namespace tw::mem

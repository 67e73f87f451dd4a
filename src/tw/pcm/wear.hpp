#pragma once
// Endurance/wear accounting: per-line bit-program counts. PCM cells endure
// ~10^8 programs; schemes that write fewer bits (DCW-family, Tetris) extend
// lifetime. The per-line ledger lives in the line's mem::DataStore slot,
// next to its content.

#include "tw/common/types.hpp"

namespace tw::pcm {

/// Per-line wear statistics.
struct LineWear {
  u64 writes = 0;        ///< line write services
  u64 bits_programmed = 0;  ///< total SET+RESET bit operations
};

/// Aggregate wear summary.
struct WearSummary {
  u64 lines_touched = 0;
  u64 total_writes = 0;
  u64 total_bits = 0;
  u64 max_line_bits = 0;     ///< hottest line's programmed-bit count
  double avg_bits_per_write = 0.0;
};

/// Device lifetime projection from a wear summary.
struct LifetimeEstimate {
  double worst_cell_pulses_per_second = 0.0;
  double lifetime_seconds = 0.0;
  double lifetime_years = 0.0;
};

/// Project device lifetime: the hottest line's programmed bits, assumed
/// uniform within the line (DCW-family writes touch random changed bits),
/// give the worst cell's pulse rate; endurance / rate = lifetime.
inline LifetimeEstimate estimate_lifetime(const WearSummary& wear,
                                          double sim_seconds,
                                          double cell_endurance = 1e8,
                                          u32 bits_per_line = 512) {
  LifetimeEstimate e;
  if (sim_seconds <= 0.0 || wear.max_line_bits == 0 || bits_per_line == 0) {
    return e;
  }
  e.worst_cell_pulses_per_second =
      static_cast<double>(wear.max_line_bits) /
      static_cast<double>(bits_per_line) / sim_seconds;
  e.lifetime_seconds = cell_endurance / e.worst_cell_pulses_per_second;
  e.lifetime_years = e.lifetime_seconds / (365.25 * 24 * 3600);
  return e;
}

}  // namespace tw::pcm

#include "tw/fault/fault_model.hpp"

#include <initializer_list>

#include "tw/common/assert.hpp"

namespace tw::fault {
namespace {

// Domain tags keep the hash sites of unrelated decision families disjoint
// even when their coordinates coincide.
constexpr u64 kDomStuckBank = 0x51C6'BA9Cull;
constexpr u64 kDomLineSet = 0x11FE'5E75ull;
constexpr u64 kDomLineReset = 0x11FE'0E5Eull;
constexpr u64 kDomCellPulse = 0xCE11'F41Cull;

/// Mix a decision site's coordinates into one well-distributed 64-bit
/// value. SplitMix64 absorbs each word; the running state is the hash.
u64 site_hash(std::initializer_list<u64> words) {
  u64 h = 0x9E3779B97F4A7C15ull;
  for (u64 w : words) {
    SplitMix64 sm(h ^ w);
    h = sm.next();
  }
  return h;
}

}  // namespace

FaultModel::FaultModel(const FaultConfig& cfg, u32 total_banks, u64 seed)
    : cfg_(cfg), seed_(seed), stuck_(total_banks, 0), remap_(total_banks, 0) {
  TW_EXPECTS(total_banks > 0);
  TW_EXPECTS(cfg_.valid());
  // Stuck banks are a power-on condition: decided once, here, from the
  // seed alone, never from runtime state.
  for (u32 b = 0; b < total_banks; ++b) {
    bool s = cfg_.stuck_bank == b;
    if (!s && cfg_.stuck_bank_prob > 0.0) {
      Rng rng(site_hash({seed_, kDomStuckBank, b}));
      s = rng.chance(cfg_.stuck_bank_prob);
    }
    stuck_[b] = s ? 1 : 0;
    if (s) ++stuck_count_;
  }
  // At least one healthy bank must remain to absorb remapped traffic.
  TW_EXPECTS(stuck_count_ < total_banks);
  for (u32 b = 0; b < total_banks; ++b) {
    u32 t = b;
    while (stuck_[t] != 0) t = (t + 1) % total_banks;
    remap_[b] = t;
  }
}

double FaultModel::effective_prob(bool set_pulse, u64 cell_wear,
                                  u32 attempt) const {
  double p = set_pulse ? cfg_.set_fail_prob : cfg_.reset_fail_prob;
  if (cfg_.wear_knee > 0 && cell_wear > cfg_.wear_knee) {
    // Endurance escalation: past the knee, failure probability grows
    // linearly with accumulated wear (wear/knee ratio), floored at
    // worn_fail_prob so worn cells fail even when transients are off.
    const double ratio = static_cast<double>(cell_wear) /
                         static_cast<double>(cfg_.wear_knee);
    double worn = cfg_.worn_fail_prob * ratio;
    if (worn < cfg_.worn_fail_prob) worn = cfg_.worn_fail_prob;
    if (worn > p) p = worn;
  }
  // Widened retry pulses deposit more energy: damp per attempt.
  for (u32 i = 0; i < attempt; ++i) p *= cfg_.retry_fail_damping;
  // Cap so the retry ladder always has a real chance of converging.
  return p > 0.75 ? 0.75 : p;
}

u32 FaultModel::draw_failures(u64 h, u32 count, double p) const {
  if (count == 0 || p <= 0.0) return 0;
  Rng rng(h);
  u32 failed = 0;
  for (u32 i = 0; i < count; ++i) {
    if (rng.chance(p)) ++failed;
  }
  return failed;
}

LineFaultOutcome FaultModel::plan_line_faults(
    Addr line, u64 service_seq, const schemes::ServicePlan& plan,
    const schemes::WriteScheme& scheme, u64 line_wear_bits,
    u32 line_bits) const {
  LineFaultOutcome out;
  if (plan.programmed.total() == 0) return out;
  TW_EXPECTS(line_bits > 0);
  // Per-cell wear estimate for this line: the wear ledger is
  // line-granular, so spread bits_programmed evenly over the line's cells.
  const u64 cell_wear = line_wear_bits / line_bits;

  // Attempt 0: the scheme's planned pulses, at nominal width.
  u32 fs = draw_failures(
      site_hash({seed_, kDomLineSet, line, service_seq, 0}),
      plan.programmed.sets, effective_prob(true, cell_wear, 0));
  u32 fr = draw_failures(
      site_hash({seed_, kDomLineReset, line, service_seq, 0}),
      plan.programmed.resets, effective_prob(false, cell_wear, 0));

  // Bounded verify-and-retry ladder: each attempt re-enters the scheme's
  // planner over just the failed bits with exponentially widened pulses,
  // then re-draws the (damped) survivors.
  while ((fs > 0 || fr > 0) && out.attempts < cfg_.max_retries) {
    ++out.attempts;
    const BitTransitions redo{fs, fr};
    out.retry_pulses.sets += fs;
    out.retry_pulses.resets += fr;
    out.extra_latency +=
        scheme.plan_retry(redo, out.attempts, cfg_.retry_widening);
    fs = draw_failures(
        site_hash({seed_, kDomLineSet, line, service_seq, out.attempts}),
        fs, effective_prob(true, cell_wear, out.attempts));
    fr = draw_failures(
        site_hash({seed_, kDomLineReset, line, service_seq, out.attempts}),
        fr, effective_prob(false, cell_wear, out.attempts));
  }
  out.failed_sets = fs;
  out.failed_resets = fr;
  out.line_failed = fs > 0 || fr > 0;
  return out;
}

bool FaultModel::pulse_fails(u64 bit, bool value, u64 pulse,
                             u32 attempt) const {
  const double p = effective_prob(value, pulse, attempt);
  if (p <= 0.0) return false;
  Rng rng(site_hash({seed_, kDomCellPulse, bit,
                     static_cast<u64>(value ? 1 : 0), pulse, attempt}));
  return rng.chance(p);
}

}  // namespace tw::fault

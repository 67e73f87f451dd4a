// Differential verification tests: every production write scheme runs
// side by side with the bit-serial oracle (corner cases + 10k randomized
// line pairs per scheme), the InvariantMonitor re-checks production
// schedules/traces/pulse streams, and planted mutants prove the checkers
// actually catch divergence (corrupted cells, lying counters, cheated
// latency, budget-overflowing schedules, doubly-driven cells).

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "tw/common/env.hpp"
#include "tw/common/rng.hpp"
#include "tw/core/factory.hpp"
#include "tw/core/hw_executor.hpp"
#include "tw/mem/controller.hpp"
#include "tw/sim/simulator.hpp"
#include "tw/verify/differential.hpp"
#include "tw/verify/invariant_monitor.hpp"

namespace tw {
namespace {

using schemes::SchemeKind;

pcm::LineBuf random_line(Rng& rng, u32 units) {
  pcm::LineBuf line(units);
  for (u32 i = 0; i < units; ++i) {
    line.set_cell(i, rng.next());
    line.set_flip(i, rng.chance(0.1));
  }
  return line;
}

pcm::LogicalLine random_mutation(Rng& rng, const pcm::LineBuf& line,
                                 double flip_rate) {
  pcm::LogicalLine next(line.units());
  for (u32 i = 0; i < line.units(); ++i) {
    u64 w = line.logical(i);
    for (u32 b = 0; b < 64; ++b) {
      if (rng.chance(flip_rate)) w ^= (u64{1} << b);
    }
    next.set_word(i, w);
  }
  return next;
}

class DifferentialAllSchemes
    : public ::testing::TestWithParam<SchemeKind> {};

// Deterministic corner cases, written as a sequence so state (tags set by
// earlier flips, all-SET / all-RESET cells) carries into the next write.
TEST_P(DifferentialAllSchemes, CornerCases) {
  const pcm::PcmConfig cfg = pcm::table2_config();
  const auto scheme = core::make_scheme(GetParam(), cfg);
  verify::DifferentialChecker checker(*scheme);
  const u32 units = cfg.geometry.units_per_line();

  pcm::LineBuf line(units);  // fresh line: all zeros, tags clear
  auto write = [&](auto word_of) {
    pcm::LogicalLine next(units);
    for (u32 i = 0; i < units; ++i) next.set_word(i, word_of(i));
    checker.check_write(line, next);
  };

  write([](u32) { return ~u64{0}; });  // all-zeros -> all-ones (max SETs)
  write([](u32) { return u64{0}; });   // all-ones -> all-zeros: the
                                       // worst-case full-RESET unit
  write([](u32) { return u64{1}; });   // single-bit flip per unit
  write([](u32) { return u64{1}; });   // identical rewrite (silent for
                                       // comparison-based schemes)
  write([](u32 i) {                    // alternating patterns
    return i % 2 ? 0xAAAA'AAAA'AAAA'AAAAull : 0x5555'5555'5555'5555ull;
  });
  write([](u32 i) {                    // full inversion of the alternation
    return i % 2 ? 0x5555'5555'5555'5555ull : 0xAAAA'AAAA'AAAA'AAAAull;
  });
  write([units](u32 i) {               // one worst-case unit, rest silent
    return i == units - 1 ? u64{0} : (i % 2 ? 0x5555'5555'5555'5555ull
                                            : 0xAAAA'AAAA'AAAA'AAAAull);
  });
  EXPECT_EQ(checker.report().writes, 7u);
}

// The acceptance sweep: 10k seeded-random (old line, new line) pairs per
// scheme, mixing in-place evolution with fresh lines and flip rates from
// sparse to adversarial.
TEST_P(DifferentialAllSchemes, TenThousandRandomPairs) {
  const pcm::PcmConfig cfg = pcm::table2_config();
  const auto scheme = core::make_scheme(GetParam(), cfg);
  verify::DifferentialChecker checker(*scheme);
  const u32 units = cfg.geometry.units_per_line();
  Rng rng(0xDEADBEEF ^ static_cast<u64>(GetParam()));

  pcm::LineBuf line = random_line(rng, units);
  for (int i = 0; i < 10'000; ++i) {
    if (rng.chance(0.05)) line = random_line(rng, units);
    const double rate = rng.chance(0.1) ? 1.0 : rng.uniform() * 0.7;
    const pcm::LogicalLine next = random_mutation(rng, line, rate);
    checker.check_write(line, next);
  }
  EXPECT_EQ(checker.report().writes, 10'000u);
  EXPECT_GT(checker.report().cells_compared, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, DifferentialAllSchemes,
    ::testing::Values(SchemeKind::kConventional, SchemeKind::kDcw,
                      SchemeKind::kFlipNWrite, SchemeKind::kTwoStage,
                      SchemeKind::kThreeStage, SchemeKind::kTetris,
                      SchemeKind::kFlipNWriteActual,
                      SchemeKind::kTwoStageActual,
                      SchemeKind::kThreeStageActual, SchemeKind::kPreset,
                      SchemeKind::kPresetActual));

// Differential checking holds across geometries and budgets, not just
// the Table II point.
TEST(DifferentialGeometry, SweepsLineSizeAndBudget) {
  for (const u32 line_bytes : {64u, 128u, 256u}) {
    for (const u32 chip_budget : {8u, 32u, 64u}) {
      pcm::PcmConfig cfg = pcm::table2_config();
      cfg.geometry.cache_line_bytes = line_bytes;
      cfg.power.chip_budget = chip_budget;
      const u32 units = cfg.geometry.units_per_line();
      Rng rng(line_bytes * 977 + chip_budget);
      for (const auto kind : schemes::kPaperSchemes) {
        const auto scheme = core::make_scheme(kind, cfg);
        verify::DifferentialChecker checker(*scheme);
        pcm::LineBuf line = random_line(rng, units);
        for (int i = 0; i < 50; ++i) {
          const pcm::LogicalLine next =
              random_mutation(rng, line, rng.uniform() * 0.5);
          checker.check_write(line, next);
        }
      }
    }
  }
}

// ------------------------------------------------------------- oracle ----
TEST(Oracle, SilentAndWorstCaseClassification) {
  const pcm::PcmConfig cfg = pcm::table2_config();
  const verify::OracleScheme oracle(
      cfg, {schemes::FlipCriterion::kNone,
            schemes::PulsePolicy::kChangedCells, false});
  pcm::LineBuf line(8);
  pcm::LogicalLine next(8);

  // Nothing changes: silent, zero envelope floor, zero energy.
  verify::OracleResult r = oracle.write(line, next);
  EXPECT_TRUE(r.silent);
  EXPECT_EQ(r.programmed.total(), 0u);
  EXPECT_EQ(r.pulse_lower, 0u);
  EXPECT_DOUBLE_EQ(r.energy_lower_pj, 0.0);

  // All 512 cells SET: the floor is a full Tset and 512 SET pulses.
  for (u32 i = 0; i < 8; ++i) next.set_word(i, ~u64{0});
  r = oracle.write(line, next);
  EXPECT_FALSE(r.silent);
  EXPECT_EQ(r.programmed.sets, 512u);
  EXPECT_EQ(r.programmed.resets, 0u);
  EXPECT_EQ(r.pulse_lower, cfg.timing.t_set);
  EXPECT_GT(r.area_lower, 0u);
  // The energy floor quantifies over flip choices: storing the inversion
  // (all zeros, tag set) costs only one tag SET per unit.
  EXPECT_NEAR(r.energy_lower_pj, 8 * cfg.energy.set_pj, 1e-9);
}

TEST(Oracle, PresetBackgroundAccounting) {
  const pcm::PcmConfig cfg = pcm::table2_config();
  const verify::OracleScheme oracle(
      cfg, {schemes::FlipCriterion::kNone, schemes::PulsePolicy::kResetOnly,
            false});
  pcm::LineBuf line(8);  // all cells 0, tags clear
  pcm::LogicalLine next(8);
  for (u32 i = 0; i < 8; ++i) next.set_word(i, ~u64{0});  // no zero bits

  const verify::OracleResult r = oracle.write(line, next);
  // Critical path: only the 8 tag RESETs (data has no zeros).
  EXPECT_EQ(r.programmed.resets, 8u);
  EXPECT_EQ(r.programmed.sets, 0u);
  // Background: every data cell (8 x 64) plus every clear tag pre-SET.
  EXPECT_EQ(r.background.sets, 8u * 64 + 8u);
  EXPECT_EQ(r.flipped_units, 0u);
  EXPECT_FALSE(r.silent);
}

// ----------------------------------------------------- mutant catching ----
// Test-only mutant schemes: DCW look-alikes with one planted bug each.
// The differential checker must catch every one of them.
class MutantDcw : public schemes::WriteScheme {
 public:
  explicit MutantDcw(const pcm::PcmConfig& cfg) : WriteScheme(cfg) {}
  std::string_view name() const override { return "mutant-dcw"; }
  SchemeKind kind() const override { return SchemeKind::kDcw; }
  schemes::WriteSemantics semantics() const override {
    return {schemes::FlipCriterion::kNone,
            schemes::PulsePolicy::kChangedCells, false};
  }
  schemes::ServicePlan plan_write(
      pcm::LineBuf& line, const pcm::LogicalLine& next) const override {
    const auto& g = cfg_.geometry;
    const auto plans = schemes::plan_line(
        line, next, schemes::FlipCriterion::kNone, g.data_unit_bits);
    schemes::ServicePlan s;
    s.read_before_write = true;
    s.programmed = schemes::total_transitions(plans);
    s.silent = s.programmed.total() == 0;
    s.latency =
        cfg_.timing.t_read + g.units_per_line() * cfg_.timing.t_set;
    schemes::apply_plans(line, plans);
    mutate(line, s);
    return s;
  }

 protected:
  virtual void mutate(pcm::LineBuf& line, schemes::ServicePlan& s) const = 0;
};

class BitrotMutant final : public MutantDcw {
  using MutantDcw::MutantDcw;
  void mutate(pcm::LineBuf& line, schemes::ServicePlan&) const override {
    line.set_cell(0, line.cell(0) ^ 1u);  // corrupt one stored bit
  }
};

class TagDropMutant final : public MutantDcw {
  using MutantDcw::MutantDcw;
  void mutate(pcm::LineBuf& line, schemes::ServicePlan&) const override {
    line.set_flip(0, !line.flip(0));  // corrupt one flip tag
  }
};

class CountLiarMutant final : public MutantDcw {
  using MutantDcw::MutantDcw;
  void mutate(pcm::LineBuf&, schemes::ServicePlan& s) const override {
    s.programmed.sets += 1;  // report one pulse too many
  }
};

class LatencyCheatMutant final : public MutantDcw {
  using MutantDcw::MutantDcw;
  void mutate(pcm::LineBuf&, schemes::ServicePlan& s) const override {
    s.latency = 1;  // below any physically possible pulse train
  }
};

template <typename Mutant>
void expect_mutant_caught() {
  const pcm::PcmConfig cfg = pcm::table2_config();
  const Mutant mutant(cfg);
  verify::DifferentialChecker checker(mutant);
  Rng rng(7);
  pcm::LineBuf line = random_line(rng, 8);
  const pcm::LogicalLine next = random_mutation(rng, line, 0.3);
  EXPECT_THROW(checker.check_write(line, next), verify::VerifyError);
}

TEST(MutantCatching, CorruptedCellDetected) {
  expect_mutant_caught<BitrotMutant>();
}
TEST(MutantCatching, CorruptedTagDetected) {
  expect_mutant_caught<TagDropMutant>();
}
TEST(MutantCatching, LyingPulseCountDetected) {
  expect_mutant_caught<CountLiarMutant>();
}
TEST(MutantCatching, CheatedLatencyDetected) {
  expect_mutant_caught<LatencyCheatMutant>();
}

// The acceptance-criterion mutant: a "smarter" packer that merges every
// write-1 into write unit 0, drawing 3x the bank budget at once. The
// monitor must reject both the schedule and the trace it implies.
TEST(MutantCatching, BudgetOverflowScheduleDetected) {
  core::PackerConfig pc;
  pc.k = 8;
  pc.l = 2;
  pc.budget = 32;
  const pcm::TimingParams timing = pcm::table2_config().timing;
  const std::vector<core::UnitCounts> counts{{0, 32, 0}, {1, 32, 0},
                                             {2, 32, 0}};
  const core::PackResult honest = core::pack(counts, pc);
  verify::InvariantMonitor monitor(pc, timing);
  monitor.check_schedule(counts, honest);  // the real packer passes

  core::PackResult mutant = honest;
  for (auto& w : mutant.write1_queue) w.write_unit = 0;
  mutant.result = 1;
  mutant.slot_power.assign(pc.k, 96);  // "honest" bookkeeping of the bug
  EXPECT_THROW(monitor.check_schedule(counts, mutant),
               verify::VerifyError);

  // The same bug expressed as an executed trace: three simultaneous
  // full-budget SET pulses in one write unit.
  core::FsmTrace trace;
  for (u32 u = 0; u < 3; ++u) {
    core::FsmEvent e;
    e.fsm = 1;
    e.unit = u;
    e.slot = 0;
    e.current = 32;
    e.start = 0;
    e.end = timing.t_set;
    trace.events.push_back(e);
  }
  EXPECT_THROW(monitor.check_trace(trace, mutant), verify::VerifyError);
}

TEST(MutantCatching, ResetOutsideInterspaceDetected) {
  core::PackerConfig pc;
  pc.k = 8;
  pc.l = 2;
  pc.budget = 32;
  const pcm::TimingParams timing = pcm::table2_config().timing;
  verify::InvariantMonitor monitor(pc, timing);

  core::PackResult pack;
  pack.result = 1;
  pack.slot_power.assign(pc.k, 0);
  core::FsmTrace trace;
  core::FsmEvent e;
  e.fsm = 0;
  e.unit = 0;
  e.slot = 2;
  e.current = 4;
  // Misaligned: the pulse starts mid-interspace instead of at its
  // sub-slot boundary, so it no longer fits its donor window.
  e.start = 2 * (timing.t_set / pc.k) + 1000;
  e.end = e.start + timing.t_reset;
  trace.events.push_back(e);
  EXPECT_THROW(monitor.check_trace(trace, pack), verify::VerifyError);
}

TEST(MutantCatching, ResetPulseWiderThanSubSlotDetected) {
  // With K = 16 a sub-write-unit (Tset/16 = 26.875 ns) can no longer
  // contain a 53 ns RESET pulse: the monitor rejects the configuration
  // before looking at any event.
  core::PackerConfig pc;
  pc.k = 16;
  pc.l = 2;
  pc.budget = 32;
  verify::InvariantMonitor monitor(pc, pcm::table2_config().timing);
  const core::PackResult empty_pack;
  const core::FsmTrace empty_trace;
  EXPECT_THROW(monitor.check_trace(empty_trace, empty_pack),
               verify::VerifyError);
}

TEST(MutantCatching, DoubleDrivenCellDetected) {
  core::PackerConfig pc;
  verify::InvariantMonitor monitor(pc, pcm::table2_config().timing);
  monitor.begin_write();
  monitor.on_pulse(7, core::WritePass::kSet, pcm::ProgramResult::kOk);
  // The RESET FSM touching the same cell is the bug the PROG-enable
  // gating must make impossible.
  EXPECT_THROW(
      monitor.on_pulse(7, core::WritePass::kReset, pcm::ProgramResult::kOk),
      verify::VerifyError);

  // A fresh write resets the ledger: the same cell is fine again.
  monitor.begin_write();
  monitor.on_pulse(7, core::WritePass::kReset, pcm::ProgramResult::kOk);
  EXPECT_GE(monitor.stats().pulses_checked, 3u);
}

// --------------------------------------------- production stays clean ----
TEST(InvariantMonitor, ProductionSchedulesAndTracesPass) {
  const pcm::PcmConfig cfg = pcm::table2_config();
  const core::TetrisScheme scheme(cfg);
  Rng rng(20240806);
  verify::InvariantMonitor monitor(
      core::PackerConfig{cfg.k(), cfg.l(), cfg.bank_power_budget()},
      cfg.timing);
  for (int i = 0; i < 500; ++i) {
    const pcm::LineBuf line = random_line(rng, 8);
    const pcm::LogicalLine next =
        random_mutation(rng, line, rng.uniform() * 0.8);
    const core::TetrisAnalysis a = scheme.analyze(line, next);
    monitor.check_schedule(a.read.counts, a.pack);
    const core::FsmTrace trace =
        core::execute_fsms(a.pack, a.packer_cfg, cfg.timing);
    monitor.check_trace(trace, a.pack);
  }
  EXPECT_EQ(monitor.stats().schedules_checked, 500u);
  EXPECT_EQ(monitor.stats().traces_checked, 500u);
  EXPECT_LE(monitor.stats().peak_current, cfg.bank_power_budget());
}

TEST(InvariantMonitor, HwExecutorPulseStreamPasses) {
  const pcm::PcmConfig cfg = pcm::table2_config();
  const core::TetrisScheme scheme(cfg);
  core::HwExecutor hw(scheme);
  verify::InvariantMonitor monitor(
      core::PackerConfig{cfg.k(), cfg.l(), cfg.bank_power_budget()},
      cfg.timing);
  hw.set_pulse_observer(&monitor);
  pcm::PcmArray array(8 * 65);
  Rng rng(99);
  for (int i = 0; i < 50; ++i) {
    pcm::LogicalLine next(8);
    for (u32 u = 0; u < 8; ++u) next.set_word(u, rng.next());
    monitor.begin_write();
    hw.write_line(array, 0, next);
    const pcm::LogicalLine readback = hw.read_line(array, 0);
    for (u32 u = 0; u < 8; ++u) ASSERT_EQ(readback.word(u), next.word(u));
  }
  EXPECT_GT(monitor.stats().pulses_checked, 0u);
}

TEST(InvariantMonitor, SimulatorHookSeesMonotonicTime) {
  verify::InvariantMonitor monitor(core::PackerConfig{},
                                   pcm::table2_config().timing);
  sim::Simulator simulator;
  simulator.set_observer(monitor.sim_hook());
  int fired = 0;
  simulator.schedule_at(ns(10), [&] { ++fired; });
  simulator.schedule_at(ns(5), [&] {
    ++fired;
    simulator.schedule_in(ns(1), [&] { ++fired; });
  });
  simulator.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(monitor.stats().sim_events_seen, 3u);
}

// -------------------------------------------------- TW_VERIFY plumbing ---
TEST(VerifyEnv, FlagArmsTetrisSelfCheck) {
  unsetenv("TW_VERIFY");
  EXPECT_FALSE(verify_env_enabled());
  EXPECT_FALSE(
      core::TetrisScheme(pcm::table2_config()).options().self_check);

  setenv("TW_VERIFY", "1", 1);
  EXPECT_TRUE(verify_env_enabled());
  const core::TetrisScheme armed(pcm::table2_config());
  EXPECT_TRUE(armed.options().self_check);

  // A write under self-check mode still completes (and re-verifies its
  // own schedule through verify_pack + the FSM model en route).
  Rng rng(3);
  pcm::LineBuf line = random_line(rng, 8);
  const pcm::LogicalLine next = random_mutation(rng, line, 0.4);
  const schemes::ServicePlan p = armed.plan_write(line, next);
  EXPECT_GT(p.latency, 0u);

  setenv("TW_VERIFY", "0", 1);
  EXPECT_FALSE(verify_env_enabled());
  unsetenv("TW_VERIFY");
}

TEST(VerifyEnv, ExplicitOptInSurvivesSelfCheckOverride) {
  unsetenv("TW_VERIFY");
  core::TetrisOptions opts;
  opts.self_check = true;  // explicit opt-in works without the env flag
  const core::TetrisScheme scheme(pcm::table2_config(), opts);
  EXPECT_TRUE(scheme.options().self_check);
}

/// One controller run over a dense random stream; returns the completion
/// log (id, completion tick) and the queued requests gap moves relocated.
struct IndexedRun {
  std::vector<std::pair<u64, Tick>> done;
  u64 gap_requeues = 0;
  u64 pauses = 0;
};

IndexedRun run_server_controller() {
  // configs/server_256b.cfg's memory side (256 B lines, 16 banks x 4
  // subarrays, write pausing, Start-Gap) with 16-line Start-Gap regions
  // moving the gap on every write, so gap moves keep relocating queued
  // lines.
  pcm::PcmConfig pcm_cfg = pcm::table2_config();
  pcm_cfg.geometry.cache_line_bytes = 256;
  pcm_cfg.geometry.banks = 16;
  pcm_cfg.geometry.subarrays_per_bank = 4;
  mem::ControllerConfig ccfg;
  ccfg.write_pausing = true;
  ccfg.wear_leveling = true;
  ccfg.start_gap.region_lines = 16;
  ccfg.start_gap.gap_write_interval = 1;

  sim::Simulator sim;
  stats::Registry reg;
  const auto scheme = core::make_scheme(schemes::SchemeKind::kDcw, pcm_cfg);
  mem::Controller ctl(sim, pcm_cfg, ccfg, *scheme, reg);
  IndexedRun run;
  const auto log = [&](const mem::MemoryRequest& r) {
    run.done.emplace_back(r.id, r.complete_tick);
  };
  ctl.set_read_callback(log);
  ctl.set_write_callback(log);

  Rng rng(11);
  const u32 units = pcm_cfg.geometry.units_per_line();
  Tick t = 0;
  for (u32 i = 0; i < 3000; ++i) {
    t += rng.below(ns(60) + 1);
    sim.run(t);
    mem::MemoryRequest req;
    req.addr = rng.below(64) * pcm_cfg.geometry.cache_line_bytes;
    req.type = rng.chance(0.6) ? mem::ReqType::kWrite : mem::ReqType::kRead;
    if (req.is_write()) {
      req.data = pcm::LogicalLine(units);
      for (u32 u = 0; u < units; ++u) req.data.set_word(u, rng.next());
    }
    (void)ctl.enqueue(std::move(req));
  }
  sim.run();
  run.gap_requeues = reg.counter("mem.gap_requeues").value();
  run.pauses = reg.counter("mem.write_pauses").value();
  return run;
}

TEST(VerifyEnv, ControllerQueueIndexInvariantUnderGapMoves) {
  // Under TW_VERIFY=1 the controller checks its queue index at every
  // dispatch and after every gap move: each queued request sits in the
  // bucket of its current physical location, buckets are age-ordered and
  // the non-empty bitmaps match. The armed run must not throw and must
  // match the unarmed one exactly.
  const char* prior = std::getenv("TW_VERIFY");
  const std::string saved = prior != nullptr ? prior : "";
  unsetenv("TW_VERIFY");
  const IndexedRun plain = run_server_controller();
  setenv("TW_VERIFY", "1", 1);
  const IndexedRun armed = run_server_controller();
  if (prior != nullptr) {
    setenv("TW_VERIFY", saved.c_str(), 1);
  } else {
    unsetenv("TW_VERIFY");
  }

  EXPECT_GT(armed.gap_requeues, 0u);
  EXPECT_GT(armed.pauses, 0u);
  EXPECT_GT(armed.done.size(), 1000u);
  EXPECT_EQ(armed.done, plain.done);
}

}  // namespace
}  // namespace tw

// Fault-injection subsystem tests: seed determinism, bounded retries,
// budget legality under brown-out, stuck-bank remap, and the differential
// guarantee that FaultConfig{none} is bit-identical to the fault-free
// simulator for every paper scheme.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "tw/core/factory.hpp"
#include "tw/core/packer.hpp"
#include "tw/fault/fault_model.hpp"
#include "tw/harness/experiment.hpp"
#include "tw/verify/invariant_monitor.hpp"
#include "tw/workload/profiles.hpp"

namespace tw {
namespace {

pcm::PcmConfig device() { return pcm::table2_config(); }

pcm::LineBuf uniform_line(u32 units, u64 cell) {
  pcm::LineBuf line(units);
  for (u32 i = 0; i < units; ++i) line.set_cell(i, cell);
  return line;
}

pcm::LogicalLine uniform_data(u32 units, u64 word) {
  pcm::LogicalLine d(units);
  for (u32 i = 0; i < units; ++i) d.set_word(i, word);
  return d;
}

/// A ServicePlan with real pulse demand, from an actual scheme plan.
schemes::ServicePlan demanding_plan(const schemes::WriteScheme& scheme) {
  const u32 units = device().geometry.units_per_line();
  pcm::LineBuf line = uniform_line(units, 0x00FF'00FF'00FF'00FFull);
  const pcm::LogicalLine next =
      uniform_data(units, 0xFF00'FF00'FF00'FF00ull);
  return scheme.plan_write(line, next);
}

harness::SystemConfig small_config(u64 seed) {
  harness::SystemConfig cfg;
  cfg.cores = 2;
  cfg.instructions_per_core = 40'000;
  cfg.seed = seed;
  return cfg;
}

// ------------------------------------------------------------ profiles --
TEST(FaultProfiles, ParseNameRoundTrip) {
  for (const auto p :
       {fault::FaultProfile::kNone, fault::FaultProfile::kLight,
        fault::FaultProfile::kHeavy, fault::FaultProfile::kStuckBank}) {
    const auto parsed = fault::parse_fault_profile(fault::profile_name(p));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, p);
    EXPECT_TRUE(fault::profile_config(p).valid());
  }
  EXPECT_FALSE(fault::parse_fault_profile("bogus").has_value());
}

TEST(FaultProfiles, NoneIsDisabledOthersEnabled) {
  EXPECT_FALSE(fault::profile_config(fault::FaultProfile::kNone).enabled());
  EXPECT_TRUE(fault::profile_config(fault::FaultProfile::kLight).enabled());
  EXPECT_TRUE(fault::profile_config(fault::FaultProfile::kHeavy).enabled());
  EXPECT_TRUE(
      fault::profile_config(fault::FaultProfile::kStuckBank).enabled());
}

// -------------------------------------------------------- determinism --
TEST(FaultDeterminism, DecisionsArePureInSiteCoordinates) {
  const fault::FaultConfig cfg =
      fault::profile_config(fault::FaultProfile::kHeavy);
  const fault::FaultModel a(cfg, 8, 42);
  const fault::FaultModel b(cfg, 8, 42);
  const fault::FaultModel other(cfg, 8, 43);

  // Bit-level decisions replay exactly, in any call order.
  bool any_fail = false, any_seed_diff = false;
  for (u64 bit = 0; bit < 512; ++bit) {
    for (u32 attempt = 0; attempt < 3; ++attempt) {
      const bool fa = a.pulse_fails(bit, true, 100, attempt);
      any_fail |= fa;
      EXPECT_EQ(fa, b.pulse_fails(bit, true, 100, attempt));
      any_seed_diff |= fa != other.pulse_fails(bit, true, 100, attempt);
    }
  }
  // Reverse order on `a` must agree with forward order on `b`.
  for (u64 bit = 512; bit-- > 0;) {
    EXPECT_EQ(a.pulse_fails(bit, false, 7, 0), b.pulse_fails(bit, false, 7, 0));
  }
  EXPECT_TRUE(any_fail);       // heavy profile actually injects
  EXPECT_TRUE(any_seed_diff);  // and the seed matters
}

TEST(FaultDeterminism, LinePlanningReplaysExactly) {
  const fault::FaultConfig cfg =
      fault::profile_config(fault::FaultProfile::kHeavy);
  const fault::FaultModel a(cfg, 8, 42);
  const fault::FaultModel b(cfg, 8, 42);
  const auto scheme =
      core::make_scheme(schemes::SchemeKind::kTetris, device());
  const schemes::ServicePlan plan = demanding_plan(*scheme);
  ASSERT_GT(plan.programmed.total(), 0u);

  for (u64 seq = 1; seq <= 64; ++seq) {
    const auto oa =
        a.plan_line_faults(seq * 64, seq, plan, *scheme, 0, 512);
    const auto ob =
        b.plan_line_faults(seq * 64, seq, plan, *scheme, 0, 512);
    EXPECT_EQ(oa.extra_latency, ob.extra_latency);
    EXPECT_EQ(oa.attempts, ob.attempts);
    EXPECT_EQ(oa.retry_pulses.sets, ob.retry_pulses.sets);
    EXPECT_EQ(oa.retry_pulses.resets, ob.retry_pulses.resets);
    EXPECT_EQ(oa.line_failed, ob.line_failed);
  }
}

TEST(FaultDeterminism, FaultedRunsReplayBitIdentical) {
  harness::SystemConfig cfg = small_config(42);
  cfg.fault = fault::profile_config(fault::FaultProfile::kLight);
  const auto& w = workload::profile_by_name("vips");
  const auto a = harness::run_system(cfg, w, schemes::SchemeKind::kTetris);
  const auto b = harness::run_system(cfg, w, schemes::SchemeKind::kTetris);
  EXPECT_TRUE(a.completed);
  EXPECT_GT(a.writes, 0u);
  EXPECT_EQ(a.runtime_ns, b.runtime_ns);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.write_latency_ns, b.write_latency_ns);
  EXPECT_EQ(a.write_energy_pj, b.write_energy_pj);
  EXPECT_EQ(a.fault_retries, b.fault_retries);
  EXPECT_EQ(a.failed_lines, b.failed_lines);
  EXPECT_EQ(a.brownout_writes, b.brownout_writes);
}

// ------------------------------------------------------- retry bounds --
TEST(FaultRetry, AttemptsBoundedAndLatencyConsistent) {
  fault::FaultConfig cfg;
  cfg.set_fail_prob = 0.6;
  cfg.reset_fail_prob = 0.6;
  cfg.max_retries = 3;
  const fault::FaultModel model(cfg, 8, 7);
  const auto scheme =
      core::make_scheme(schemes::SchemeKind::kTetris, device());
  const schemes::ServicePlan plan = demanding_plan(*scheme);

  bool any_retry = false;
  for (u64 seq = 1; seq <= 200; ++seq) {
    const auto out =
        model.plan_line_faults(seq * 64, seq, plan, *scheme, 0, 512);
    EXPECT_LE(out.attempts, cfg.max_retries);
    EXPECT_EQ(out.attempts == 0, out.extra_latency == 0);
    if (out.line_failed) {
      // A failed line means the ladder was exhausted, not skipped.
      EXPECT_EQ(out.attempts, cfg.max_retries);
      EXPECT_GT(out.failed_sets + out.failed_resets, 0u);
    } else {
      EXPECT_EQ(out.failed_sets + out.failed_resets, 0u);
    }
    EXPECT_LE(out.retry_pulses.total(),
              u64{plan.programmed.total()} * cfg.max_retries);
    any_retry |= out.attempts > 0;
  }
  EXPECT_TRUE(any_retry);
}

TEST(FaultRetry, ExhaustedLadderSurfacesFailedLineNotAssert) {
  // Undamped certain failure: every attempt re-fails everything, so every
  // write with pulse demand must surface as a FailedLine.
  fault::FaultConfig cfg;
  cfg.set_fail_prob = 1.0;  // capped to 0.75 internally, still massive
  cfg.reset_fail_prob = 1.0;
  cfg.retry_fail_damping = 1.0;
  cfg.max_retries = 2;
  const fault::FaultModel model(cfg, 8, 11);
  const auto scheme =
      core::make_scheme(schemes::SchemeKind::kDcw, device());
  const schemes::ServicePlan plan = demanding_plan(*scheme);
  ASSERT_GT(plan.programmed.total(), 100u);

  u32 failed = 0;
  for (u64 seq = 1; seq <= 50; ++seq) {
    const auto out =
        model.plan_line_faults(seq * 64, seq, plan, *scheme, 0, 512);
    if (out.line_failed) ++failed;
    EXPECT_LE(out.attempts, cfg.max_retries);
  }
  EXPECT_GT(failed, 0u);
}

TEST(FaultRetry, WideningRaisesRetryPrice) {
  const auto scheme =
      core::make_scheme(schemes::SchemeKind::kTetris, device());
  const BitTransitions failed{40, 40};
  const Tick narrow = scheme->plan_retry(failed, 1, 1.0);
  const Tick wide = scheme->plan_retry(failed, 1, 2.0);
  const Tick wider = scheme->plan_retry(failed, 2, 2.0);
  EXPECT_GT(narrow, 0u);
  EXPECT_GT(wide, narrow);
  EXPECT_GT(wider, wide);
  // Baseline schemes price retries through the closed forms.
  const auto dcw = core::make_scheme(schemes::SchemeKind::kDcw, device());
  EXPECT_GT(dcw->plan_retry(failed, 1, 2.0), dcw->plan_retry(failed, 1, 1.0));
}

// ------------------------------------------- brown-out budget legality --
TEST(FaultBrownout, ScaledBudgetSchedulesStayLegal) {
  const pcm::PcmConfig dev = device();
  const auto scheme =
      core::make_scheme(schemes::SchemeKind::kTetris, device());
  const u32 nominal = dev.bank_power_budget();
  ASSERT_EQ(scheme->effective_budget(), nominal);

  for (const double scale : {0.5, 0.25, 0.1}) {
    scheme->set_budget_scale(scale);
    const u32 eff = scheme->effective_budget();
    EXPECT_GE(eff, 1u);
    EXPECT_LE(eff, nominal);
    EXPECT_EQ(eff, std::max<u32>(
                       1, static_cast<u32>(static_cast<double>(nominal) *
                                           scale)));

    // Pack real demand under the shrunken budget and verify the schedule
    // against the *shrunken* PackerConfig: power legality must hold inside
    // the brown-out window, not just against the nominal budget.
    std::vector<core::UnitCounts> counts;
    for (u32 u = 0; u < 8; ++u) counts.push_back({u, 32, 24});
    core::PackerConfig pc;
    pc.k = dev.k();
    pc.l = dev.l();
    pc.budget = eff;
    const core::PackResult pack = core::pack(counts, pc);
    verify::InvariantMonitor monitor(pc, dev.timing);
    EXPECT_NO_THROW(monitor.check_schedule(counts, pack, pc));
    EXPECT_GT(pack.total_sub_slots(pc.k), 0u);
  }
  scheme->set_budget_scale(1.0);
  EXPECT_EQ(scheme->effective_budget(), nominal);
}

TEST(FaultBrownout, WindowArithmetic) {
  fault::FaultConfig cfg;
  cfg.brownout_period = us(100);
  cfg.brownout_duration = us(5);
  cfg.brownout_budget_factor = 0.5;
  const fault::FaultModel model(cfg, 8, 42);
  EXPECT_TRUE(model.in_brownout(0));
  EXPECT_TRUE(model.in_brownout(us(5) - 1));
  EXPECT_FALSE(model.in_brownout(us(5)));
  EXPECT_FALSE(model.in_brownout(us(100) - 1));
  EXPECT_TRUE(model.in_brownout(us(100)));
  EXPECT_EQ(model.budget_factor(us(1)), 0.5);
  EXPECT_EQ(model.budget_factor(us(50)), 1.0);
}

TEST(FaultBrownout, RunCompletesWithBrownoutsAndNoViolations) {
  harness::SystemConfig cfg = small_config(42);
  cfg.fault = fault::profile_config(fault::FaultProfile::kHeavy);
  const auto& w = workload::profile_by_name("vips");
  const auto m = harness::run_system(cfg, w, schemes::SchemeKind::kTetris);
  EXPECT_TRUE(m.completed);
  EXPECT_GT(m.writes, 0u);
  EXPECT_GT(m.brownout_writes, 0u);  // windows actually bit
  EXPECT_GT(m.fault_retries, 0u);    // transients actually injected
}

// ------------------------------------------------------ stuck-bank remap --
TEST(FaultStuckBank, RemapTargetsNextHealthyBank) {
  fault::FaultConfig cfg;
  cfg.stuck_bank = 2;
  const fault::FaultModel model(cfg, 8, 42);
  EXPECT_TRUE(model.any_bank_stuck());
  EXPECT_EQ(model.stuck_banks(), 1u);
  EXPECT_TRUE(model.bank_stuck(2));
  EXPECT_EQ(model.remap_bank(2), 3u);
  for (u32 b = 0; b < 8; ++b) {
    if (b == 2) continue;
    EXPECT_FALSE(model.bank_stuck(b));
    EXPECT_EQ(model.remap_bank(b), b);  // healthy banks are identity
  }
}

TEST(FaultStuckBank, LastBankWrapsToFirstHealthy) {
  fault::FaultConfig cfg;
  cfg.stuck_bank = 7;
  const fault::FaultModel model(cfg, 8, 42);
  EXPECT_EQ(model.remap_bank(7), 0u);
}

TEST(FaultStuckBank, ProbabilisticStuckIsSeedStable) {
  fault::FaultConfig cfg;
  cfg.stuck_bank_prob = 0.3;
  const fault::FaultModel a(cfg, 16, 42);
  const fault::FaultModel b(cfg, 16, 42);
  EXPECT_EQ(a.stuck_banks(), b.stuck_banks());
  for (u32 bank = 0; bank < 16; ++bank) {
    EXPECT_EQ(a.bank_stuck(bank), b.bank_stuck(bank));
    if (!a.bank_stuck(bank)) {
      EXPECT_EQ(a.remap_bank(bank), bank);
    }
  }
}

TEST(FaultStuckBank, SystemDegradesGracefully) {
  harness::SystemConfig cfg = small_config(42);
  cfg.fault = fault::profile_config(fault::FaultProfile::kStuckBank);
  const auto& w = workload::profile_by_name("vips");
  const auto m = harness::run_system(cfg, w, schemes::SchemeKind::kTetris);
  EXPECT_TRUE(m.completed);
  EXPECT_GT(m.writes, 0u);
  EXPECT_GT(m.stuck_remaps, 0u);  // traffic actually redirected
}

// ------------------------------------------------- none == fault-free --
TEST(FaultNone, BitIdenticalForEveryPaperScheme) {
  const auto& w = workload::profile_by_name("ferret");
  const std::vector<schemes::SchemeKind> kinds = {
      schemes::SchemeKind::kDcw, schemes::SchemeKind::kFlipNWrite,
      schemes::SchemeKind::kTwoStage, schemes::SchemeKind::kThreeStage,
      schemes::SchemeKind::kTetris};
  for (const auto kind : kinds) {
    SCOPED_TRACE(schemes::scheme_name(kind));
    const harness::SystemConfig base = small_config(42);
    harness::SystemConfig none = small_config(42);
    none.fault = fault::profile_config(fault::FaultProfile::kNone);
    const auto a = harness::run_system(base, w, kind);
    const auto b = harness::run_system(none, w, kind);
    EXPECT_TRUE(a.completed);
    EXPECT_GT(a.writes, 0u);
    EXPECT_EQ(a.runtime_ns, b.runtime_ns);
    EXPECT_EQ(a.sim_events, b.sim_events);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.read_latency_ns, b.read_latency_ns);
    EXPECT_EQ(a.write_latency_ns, b.write_latency_ns);
    EXPECT_EQ(a.write_service_ns, b.write_service_ns);
    EXPECT_EQ(a.write_energy_pj, b.write_energy_pj);
    EXPECT_EQ(a.read_energy_pj, b.read_energy_pj);
    EXPECT_EQ(a.bits_per_write, b.bits_per_write);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.write_pauses, b.write_pauses);
    EXPECT_EQ(a.dispatch_rounds, b.dispatch_rounds);
    EXPECT_EQ(b.fault_retries, 0u);
    EXPECT_EQ(b.failed_lines, 0u);
    EXPECT_EQ(b.brownout_writes, 0u);
    EXPECT_EQ(b.stuck_remaps, 0u);
  }
}

TEST(FaultNone, ActiveModelWithVanishingProbsIsBitIdentical) {
  // Stronger than the disabled path: the FaultModel is constructed and the
  // controller's fault plumbing runs on every write, but the failure
  // probability is so small no draw ever fires — metrics must still be
  // bit-identical to the fault-free run.
  const auto& w = workload::profile_by_name("vips");
  const harness::SystemConfig base = small_config(42);
  harness::SystemConfig eps = small_config(42);
  eps.fault.set_fail_prob = 1e-300;
  ASSERT_TRUE(eps.fault.enabled());
  for (const auto kind :
       {schemes::SchemeKind::kDcw, schemes::SchemeKind::kTetris}) {
    SCOPED_TRACE(schemes::scheme_name(kind));
    const auto a = harness::run_system(base, w, kind);
    const auto b = harness::run_system(eps, w, kind);
    EXPECT_EQ(a.runtime_ns, b.runtime_ns);
    EXPECT_EQ(a.sim_events, b.sim_events);
    EXPECT_EQ(a.write_latency_ns, b.write_latency_ns);
    EXPECT_EQ(a.write_energy_pj, b.write_energy_pj);
    EXPECT_EQ(b.fault_retries, 0u);
    EXPECT_EQ(b.failed_lines, 0u);
  }
}

// --------------------------------------------------------- fault hash --
TEST(FaultHash, ConfigHashSeparatesProfiles) {
  harness::SystemConfig a = small_config(42);
  harness::SystemConfig b = small_config(42);
  b.fault = fault::profile_config(fault::FaultProfile::kLight);
  harness::SystemConfig c = small_config(42);
  c.fault = fault::profile_config(fault::FaultProfile::kHeavy);
  EXPECT_NE(harness::config_hash(a), harness::config_hash(b));
  EXPECT_NE(harness::config_hash(b), harness::config_hash(c));
  EXPECT_EQ(harness::config_hash(a), harness::config_hash(small_config(42)));
}

}  // namespace
}  // namespace tw

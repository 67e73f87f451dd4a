// Feature-interaction tests: the controller's optional mechanisms
// (write pausing, Start-Gap wear leveling, write batching, subarrays,
// drain policies) must compose without deadlock, loss, or
// non-determinism — individually each has its own tests; these stress the
// cross-products on full-system runs.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstdlib>
#include <fstream>
#include <string>

#include "tw/core/factory.hpp"
#include "tw/harness/experiment.hpp"

namespace tw {
namespace {

harness::SystemConfig everything_on() {
  harness::SystemConfig cfg;
  cfg.instructions_per_core = 10'000;
  cfg.controller.write_pausing = true;
  cfg.controller.wear_leveling = true;
  cfg.controller.start_gap.region_lines = 4096;
  cfg.controller.start_gap.gap_write_interval = 32;
  cfg.controller.write_batch = 4;
  cfg.pcm.geometry.subarrays_per_bank = 2;
  return cfg;
}

class AllFeatures : public ::testing::TestWithParam<const char*> {};

TEST_P(AllFeatures, RunsToCompletionOnEveryWorkload) {
  const auto& p = workload::profile_by_name(GetParam());
  const harness::RunMetrics m =
      harness::run_system(everything_on(), p, schemes::SchemeKind::kTetris);
  EXPECT_TRUE(m.completed) << p.name;
  EXPECT_GT(m.retired, 0u);
  if (m.writes > 20) {
    EXPECT_GT(m.write_units, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, AllFeatures,
    ::testing::Values("blackscholes", "bodytrack", "canneal", "dedup",
                      "ferret", "freqmine", "swaptions", "vips"));

TEST(Combo, AllFeaturesDeterministic) {
  const auto& p = workload::profile_by_name("vips");
  const auto a =
      harness::run_system(everything_on(), p, schemes::SchemeKind::kTetris);
  const auto b =
      harness::run_system(everything_on(), p, schemes::SchemeKind::kTetris);
  EXPECT_DOUBLE_EQ(a.runtime_ns, b.runtime_ns);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.gap_moves, b.gap_moves);
  EXPECT_EQ(a.write_pauses, b.write_pauses);
  EXPECT_EQ(a.writes_batched, b.writes_batched);
}

TEST(Combo, AllFeaturesWorkWithEveryScheme) {
  const auto& p = workload::profile_by_name("ferret");
  harness::SystemConfig cfg = everything_on();
  cfg.instructions_per_core = 6'000;
  for (const auto kind : core::all_scheme_kinds()) {
    const harness::RunMetrics m = harness::run_system(cfg, p, kind);
    EXPECT_TRUE(m.completed) << schemes::scheme_name(kind);
  }
}

TEST(Combo, PausingPlusWearLevelingKeepsDataConsistent) {
  sim::Simulator sim;
  stats::Registry reg;
  const pcm::PcmConfig pcfg = pcm::table2_config();
  const auto scheme = core::make_scheme(schemes::SchemeKind::kDcw, pcfg);
  mem::ControllerConfig ccfg;
  ccfg.drain = mem::ControllerConfig::DrainPolicy::kOpportunistic;
  ccfg.write_pausing = true;
  ccfg.wear_leveling = true;
  ccfg.start_gap.region_lines = 64;
  ccfg.start_gap.gap_write_interval = 2;
  mem::Controller ctl(sim, pcfg, ccfg, *scheme, reg);

  Rng rng(3);
  std::vector<u64> last_written(32, 0);
  for (int round = 0; round < 8; ++round) {
    for (u32 l = 0; l < 32; ++l) {
      mem::MemoryRequest w;
      w.addr = l * 64;
      w.type = mem::ReqType::kWrite;
      pcm::LogicalLine d(8);
      const u64 v = rng.next();
      for (u32 i = 0; i < 8; ++i) d.set_word(i, v + i);
      w.data = d;
      last_written[l] = v;
      ASSERT_TRUE(ctl.enqueue(std::move(w)));
      // Interleave reads to trigger pauses during migrations.
      mem::MemoryRequest r;
      r.addr = ((l + 7) % 32) * 64;
      r.type = mem::ReqType::kRead;
      ctl.enqueue(std::move(r));
      sim.run();
    }
  }
  ASSERT_TRUE(ctl.idle());
  EXPECT_GT(ctl.gap_moves(), 50u);
  for (u32 l = 0; l < 32; ++l) {
    const Addr phys = ctl.physical_of(l * 64);
    EXPECT_EQ(ctl.store().read_logical(phys).word(0), last_written[l])
        << "line " << l;
  }
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define TW_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define TW_SANITIZED 1
#endif
#endif

#ifndef TW_SANITIZED
// Caps this process's address space at what it maps now plus
// `headroom_mb`, so a structure sized by an address instead of by what
// was touched fails with bad_alloc instead of paging the host.
void limit_address_space(u64 headroom_mb) {
  std::ifstream status("/proc/self/status");
  u64 vm_kb = 0;
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmSize:", 0) == 0) {
      vm_kb = std::strtoull(line.c_str() + 7, nullptr, 10);
    }
  }
  const rlim_t cap = (vm_kb + headroom_mb * 1024) * 1024;
  const rlimit lim{cap, cap};
  if (vm_kb == 0 || setrlimit(RLIMIT_AS, &lim) != 0) std::_Exit(3);
}

// Runs in a forked child under the address-space cap; exit 0 = the run
// completed, anything else (bad_alloc abort, failed check) = unbounded.
void run_bounded(const harness::SystemConfig& cfg, const char* workload) {
  limit_address_space(1024);
  const harness::RunMetrics m = harness::run_system(
      cfg, workload::profile_by_name(workload), schemes::SchemeKind::kTetris);
  std::_Exit(m.completed ? 0 : 1);
}
#endif

TEST(Combo, AllFeaturesMemoryBoundedUnderAddressSpaceLimit) {
#ifdef TW_SANITIZED
  GTEST_SKIP() << "sanitizer runtimes reserve address space lazily";
#else
  // High: the generator's shared region sits at 2^44 bytes.
  EXPECT_EXIT(run_bounded(everything_on(), "vips"),
              ::testing::ExitedWithCode(0), "");
  // Multi-channel: per-channel controllers each key their own regions.
  harness::SystemConfig multi = everything_on();
  multi.pcm.geometry.channels = 4;
  EXPECT_EXIT(run_bounded(multi, "canneal"), ::testing::ExitedWithCode(0),
              "");
  // Sparse: a handful of lines spread over the whole 48-bit space, one
  // Start-Gap region each.
  EXPECT_EXIT(
      {
        limit_address_space(1024);
        sim::Simulator sim;
        stats::Registry reg;
        const pcm::PcmConfig pcfg = pcm::table2_config();
        const auto scheme =
            core::make_scheme(schemes::SchemeKind::kTetris, pcfg);
        mem::ControllerConfig ccfg;
        ccfg.drain = mem::ControllerConfig::DrainPolicy::kOpportunistic;
        ccfg.wear_leveling = true;
        ccfg.start_gap.region_lines = 64;
        ccfg.start_gap.gap_write_interval = 1;
        mem::Controller ctl(sim, pcfg, ccfg, *scheme, reg);
        for (u64 k = 1; k <= 64; ++k) {
          mem::MemoryRequest w;
          w.addr = (k << 41) | (k * 64 * 4099);
          w.type = mem::ReqType::kWrite;
          w.data = pcm::LogicalLine(pcfg.geometry.units_per_line());
          w.data.set_word(0, k);
          if (!ctl.enqueue(std::move(w))) std::_Exit(1);
          sim.run();
        }
        std::_Exit(ctl.idle() && ctl.gap_moves() == 64 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
#endif
}

TEST(Combo, BatchingRespectsStrictDrain) {
  // Write-heavy enough that the 32-entry queue actually fills (strict
  // drains never trigger otherwise).
  const auto& p = workload::profile_by_name("vips");
  harness::SystemConfig cfg;
  cfg.instructions_per_core = 30'000;
  cfg.controller.write_batch = 4;
  cfg.controller.drain = mem::ControllerConfig::DrainPolicy::kStrict;
  const harness::RunMetrics m =
      harness::run_system(cfg, p, schemes::SchemeKind::kTetris);
  EXPECT_TRUE(m.completed);
  // Strict drains release bursts of same-bank writes: batches must form.
  EXPECT_GT(m.writes_batched, 0u);
}

TEST(Combo, GeometryStressAcrossFullSystem) {
  // Odd-but-valid geometries through the whole pipeline.
  const auto& p = workload::profile_by_name("ferret");
  struct Geo {
    u32 banks;
    u32 subarrays;
    u32 line_bytes;
  };
  for (const Geo g : {Geo{2, 8, 64}, Geo{16, 1, 128}, Geo{4, 4, 256}}) {
    harness::SystemConfig cfg;
    cfg.instructions_per_core = 6'000;
    cfg.pcm.geometry.banks = g.banks;
    cfg.pcm.geometry.subarrays_per_bank = g.subarrays;
    cfg.pcm.geometry.cache_line_bytes = g.line_bytes;
    const harness::RunMetrics m =
        harness::run_system(cfg, p, schemes::SchemeKind::kTetris);
    EXPECT_TRUE(m.completed)
        << g.banks << "/" << g.subarrays << "/" << g.line_bytes;
  }
}

TEST(Combo, SubarraysPlusPausingStack) {
  // Both mechanisms reduce read latency; together they must not be worse
  // than either alone on the write-bound workload.
  const auto& p = workload::profile_by_name("vips");
  harness::SystemConfig base;
  base.instructions_per_core = 12'000;
  auto run = [&](bool pausing, u32 subarrays) {
    harness::SystemConfig cfg = base;
    cfg.controller.write_pausing = pausing;
    cfg.pcm.geometry.subarrays_per_bank = subarrays;
    return harness::run_system(cfg, p, schemes::SchemeKind::kDcw)
        .read_latency_ns;
  };
  const double none = run(false, 1);
  const double both = run(true, 4);
  EXPECT_LT(both, none * 0.6);
}

}  // namespace
}  // namespace tw

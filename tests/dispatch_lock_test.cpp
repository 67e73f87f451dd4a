// Bit-identity lock for the controller configurations the frozen
// scheduling oracle (tests/reference_controller.hpp) does not model:
// stuck-bank remapping, Start-Gap under PALP with batched writes,
// Start-Gap under transient faults, the large-line server config
// (pausing + Start-Gap + 4 subarrays) and PALP partition writes under
// heavy faults with the coset encoder. Each cell's headline timing and
// its write accounting (energy, write units, batching, brown-outs, row
// locality, partition overlaps, encoder stats) are pinned to recorded
// values, so any change to the dispatch order or the per-line charge of
// these configurations shows up here even though no differential oracle
// covers them. Doubles are pinned exactly (hex-float literals).
//
// On a mismatch the failure message prints the observed row in table
// syntax; a deliberate model change re-records a row by pasting it.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "tw/encode/encoder.hpp"
#include "tw/fault/fault.hpp"
#include "tw/harness/config_file.hpp"
#include "tw/harness/experiment.hpp"
#include "tw/workload/profiles.hpp"

namespace tw {
namespace {

/// The pinned metrics of one run.
struct Locked {
  double runtime_ns = 0;
  u64 sim_events = 0;
  u64 reads = 0;
  u64 writes = 0;
  double read_latency_ns = 0;
  double write_latency_ns = 0;
  u64 write_pauses = 0;
  u64 gap_moves = 0;
  u64 stuck_remaps = 0;
  u64 fault_retries = 0;
  u64 palp_overlapped_reads = 0;
  u64 dispatch_rounds = 0;
  double write_energy_pj = 0;
  double write_units = 0;
  u64 writes_batched = 0;
  u64 brownout_writes = 0;
  u64 row_hits = 0;
  u64 palp_write_overlaps = 0;
  u64 enc_writes = 0;
  u64 enc_coded_units = 0;
  u64 enc_tag_bits = 0;

  bool operator==(const Locked&) const = default;
};

Locked observe(const harness::RunMetrics& m) {
  return {m.runtime_ns,      m.sim_events,       m.reads,
          m.writes,          m.read_latency_ns,  m.write_latency_ns,
          m.write_pauses,    m.gap_moves,        m.stuck_remaps,
          m.fault_retries,   m.palp_overlapped_reads,
          m.dispatch_rounds, m.write_energy_pj,  m.write_units,
          m.writes_batched,  m.brownout_writes,  m.row_hits,
          m.palp_write_overlaps, m.enc_writes,   m.enc_coded_units,
          m.enc_tag_bits};
}

std::string row(const Locked& l) {
  char buf[768];
  std::snprintf(buf, sizeof(buf),
                "{%a, %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %a, %a, %" PRIu64
                ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                ", %" PRIu64 ",\n   %a, %a, %" PRIu64 ", %" PRIu64
                ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                ", %" PRIu64 "}",
                l.runtime_ns, l.sim_events, l.reads, l.writes,
                l.read_latency_ns, l.write_latency_ns, l.write_pauses,
                l.gap_moves, l.stuck_remaps, l.fault_retries,
                l.palp_overlapped_reads, l.dispatch_rounds,
                l.write_energy_pj, l.write_units, l.writes_batched,
                l.brownout_writes, l.row_hits, l.palp_write_overlaps,
                l.enc_writes, l.enc_coded_units, l.enc_tag_bits);
  return buf;
}

/// Runs `profile` for about `ops` memory requests per core (the figure
/// binaries' sizing rule) and compares the pinned metrics.
void expect_locked(harness::SystemConfig cfg, const char* profile, u64 ops,
                   const Locked& want,
                   workload::ContentClass content =
                       workload::ContentClass::kMutate) {
  SCOPED_TRACE(profile);
  workload::WorkloadProfile p = workload::profile_by_name(profile);
  p.content = content;
  cfg.instructions_per_core = static_cast<u64>(
      static_cast<double>(ops) * 1000.0 / p.mem_ops_per_kilo());
  const auto m = harness::run_system(cfg, p, schemes::SchemeKind::kTetris);
  ASSERT_TRUE(m.completed);
  const Locked got = observe(m);
  EXPECT_TRUE(got == want) << "observed " << row(got) << "\n  pinned   "
                           << row(want);
}

harness::SystemConfig seeded() {
  harness::SystemConfig cfg;
  cfg.seed = 42;
  return cfg;
}

TEST(DispatchLock, StuckBank) {
  harness::SystemConfig cfg = seeded();
  cfg.fault = fault::profile_config(fault::FaultProfile::kStuckBank);
  expect_locked(cfg, "vips", 3000,
                {0x1.b3dc38p+19, 57327, 7431, 4484, 0x1.8daf57e1f5977p+8,
                 0x1.b80640664f037p+12, 0, 0, 1420, 472, 0, 22157,
                 0x1.5cf0956666672p+23, 0x1.38af62e21575dp+0, 0, 0, 0, 0, 0,
                 0, 0});
}

TEST(DispatchLock, StartGapPalpBatched) {
  harness::SystemConfig cfg = seeded();
  cfg.pcm.geometry.subarrays_per_bank = 4;
  cfg.controller.palp.enabled = true;
  cfg.controller.wear_leveling = true;
  // Small regions and a short interval: gap moves relocate lines that
  // are still queued.
  cfg.controller.start_gap.region_lines = 1024;
  cfg.controller.start_gap.gap_write_interval = 2;
  cfg.batch.max_lines = 4;
  expect_locked(cfg, "vips", 3000,
                {0x1.42ad7p+19, 50140, 7431, 4473, 0x1.3e5d36bdd22eep+10,
                 0x1.87b222aec9931p+12, 0, 2154, 0, 0, 3345, 18825,
                 0x1.81f6436666675p+24, 0x1.a1cd856890389p+0, 3199, 0, 0, 789,
                 0, 0, 0});
  expect_locked(cfg, "canneal", 3000,
                {0x1.5549ep+18, 55636, 11083, 744, 0x1.fc4e569e8060cp+7,
                 0x1.8cea391e47924p+13, 0, 295, 0, 0, 487, 21717,
                 0x1.d8cce4ccccccbp+21, 0x1.50791e4791e46p+0, 739, 0, 0, 0, 0,
                 0, 0});
}

TEST(DispatchLock, StartGapLightFaults) {
  harness::SystemConfig cfg = seeded();
  cfg.controller.wear_leveling = true;
  cfg.controller.start_gap.region_lines = 1024;
  cfg.controller.start_gap.gap_write_interval = 2;
  cfg.fault = fault::profile_config(fault::FaultProfile::kLight);
  expect_locked(cfg, "vips", 3000,
                {0x1.add68p+19, 60457, 7431, 4485, 0x1.aa284c5780f27p+9,
                 0x1.a5a34e5ea3215p+12, 0, 2161, 0, 1043, 0, 23046,
                 0x1.8362bfcccccb5p+24, 0x1.6afeafeafeaf7p+0, 0, 229, 0, 0, 0,
                 0, 0});
}

TEST(DispatchLock, Server256b) {
  harness::SystemConfig cfg =
      harness::load_system_config(TW_CONFIGS_DIR "/server_256b.cfg");
  cfg.seed = 1;
  expect_locked(cfg, "ferret", 3000,
                {0x1.5abebcp+20, 124735, 15178, 8505, 0x1.bd2c0e2af9d2fp+6,
                 0x1.d726faf92ad6p+12, 2758, 62, 0, 0, 0, 48770,
                 0x1.f0d865733333bp+26, 0x1.325b71912c064p+2, 0, 0, 5, 0, 0,
                 0, 0});
  expect_locked(cfg, "vips", 3000,
                {0x1.72ec58p+20, 124981, 14786, 9039, 0x1.b47b4a6a0769fp+6,
                 0x1.dadb159c063afp+12, 2748, 67, 0, 0, 0, 48636,
                 0x1.0922edf66666cp+27, 0x1.335872df75556p+2, 0, 0, 3, 0, 0,
                 0, 0});
  expect_locked(cfg, "canneal", 3000,
                {0x1.2f8f4p+18, 123641, 22621, 1461, 0x1.98ed5f5288c73p+6,
                 0x1.0b9d4df9576fep+13, 2782, 5, 0, 0, 0, 47005,
                 0x1.4cb2adb33332bp+24, 0x1.4a30b63b39a4cp+2, 0, 0, 0, 0, 0,
                 0, 0});
}

TEST(DispatchLock, PalpSingleWritesHeavyFaults) {
  // Partition writes issued one line at a time, planned inside deep
  // brown-out windows against their share of the pump.
  harness::SystemConfig cfg = seeded();
  cfg.pcm.geometry.subarrays_per_bank = 4;
  cfg.controller.palp.enabled = true;
  cfg.batch.max_lines = 1;
  cfg.fault = fault::profile_config(fault::FaultProfile::kHeavy);
  cfg.encode.kind = encode::EncoderKind::kCoset;
  expect_locked(cfg, "vips", 3000,
                {0x1.4d707p+19, 54738, 7431, 4485, 0x1.52f631d0aa51bp+9,
                 0x1.90acf65a870d4p+12, 0, 0, 0, 3483, 6068, 21396,
                 0x1.6193e6cccccbdp+23, 0x1.2b100a0bc21fcp+1, 0, 320, 0, 3681,
                 4485, 0, 0});
  expect_locked(cfg, "canneal", 3000,
                {0x1.1f06ap+18, 55786, 11083, 735, 0x1.4583185e6d2b7p+7,
                 0x1.31a79d153f0a9p+13, 0, 0, 0, 394, 1382, 21750,
                 0x1.c1bbc00000005p+18, 0x1.5d798e7454fc2p+0, 0, 99, 0, 315,
                 735, 0, 0});
  // Compressible payloads make the coset code store coded units and tags.
  expect_locked(cfg, "vips", 3000,
                {0x1.230b48p+19, 54701, 7260, 4588, 0x1.1671878bc703dp+9,
                 0x1.5718678f83026p+12, 0, 0, 0, 4036, 6013, 21545,
                 0x1.12104266666c6p+23, 0x1.7fc181ac86ce8p+0, 0, 292, 0, 3856,
                 4588, 36704, 82985},
                workload::ContentClass::kCompressible);
}

}  // namespace
}  // namespace tw

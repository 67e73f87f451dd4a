// Observability layer tests: ring wraparound, category gating, Chrome
// trace JSON well-formedness + same-seed determinism, manifest
// provenance, metrics snapshots, and multi-thread attach (the latter is
// part of the TSAN suite).

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "tw/fault/fault.hpp"
#include "tw/harness/config_file.hpp"
#include "tw/harness/experiment.hpp"
#include "tw/trace/chrome_sink.hpp"
#include "tw/trace/emit.hpp"
#include "tw/trace/metrics_sink.hpp"
#include "tw/trace/ring.hpp"
#include "tw/trace/tracer.hpp"
#include "tw/workload/profiles.hpp"

#include "run_digest.hpp"

namespace tw {
namespace {

using trace::Category;
using trace::Kind;
using trace::Op;
using trace::TraceRecord;
using trace::TraceRing;
using trace::Track;
using testing_digest::trace_digest;

TraceRecord rec(Tick tick, u64 arg0 = 0) {
  TraceRecord r;
  r.tick = tick;
  r.arg0 = arg0;
  r.track = trace::track_id(Track::kKernel, 0);
  r.op = Op::kEventFire;
  r.category = Category::kKernel;
  r.kind = Kind::kInstant;
  return r;
}

TEST(TraceRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TraceRing(1).capacity(), 16u);    // minimum
  EXPECT_EQ(TraceRing(16).capacity(), 16u);
  EXPECT_EQ(TraceRing(17).capacity(), 32u);
  EXPECT_EQ(TraceRing(1000).capacity(), 1024u);
}

TEST(TraceRingTest, CollectsInOrderBeforeWrap) {
  TraceRing ring(16);
  for (u64 i = 0; i < 10; ++i) ring.push(rec(i));
  EXPECT_EQ(ring.pushed(), 10u);
  EXPECT_EQ(ring.dropped(), 0u);
  std::vector<TraceRecord> out;
  ring.collect(out);
  ASSERT_EQ(out.size(), 10u);
  for (u64 i = 0; i < 10; ++i) EXPECT_EQ(out[i].tick, i);
}

TEST(TraceRingTest, WraparoundKeepsMostRecentWindow) {
  TraceRing ring(16);
  const u64 total = 100;
  for (u64 i = 0; i < total; ++i) ring.push(rec(i));
  EXPECT_EQ(ring.pushed(), total);
  EXPECT_EQ(ring.dropped(), total - 16);
  EXPECT_EQ(ring.size(), 16u);
  std::vector<TraceRecord> out;
  ring.collect(out);
  ASSERT_EQ(out.size(), 16u);
  // The survivors are exactly the newest 16, oldest first.
  for (u64 i = 0; i < 16; ++i) EXPECT_EQ(out[i].tick, total - 16 + i);
}

TEST(TraceRingTest, ClearResets) {
  TraceRing ring(16);
  for (u64 i = 0; i < 40; ++i) ring.push(rec(i));
  ring.clear();
  EXPECT_EQ(ring.pushed(), 0u);
  EXPECT_EQ(ring.size(), 0u);
  std::vector<TraceRecord> out;
  ring.collect(out);
  EXPECT_TRUE(out.empty());
}

TEST(TraceGateTest, OffWhenUnattached) {
  ASSERT_EQ(trace::g_tls.ring, nullptr);
  EXPECT_FALSE(trace::on<Category::kKernel>());
  EXPECT_FALSE(trace::on(Category::kController));
}

TEST(TraceGateTest, MaskedCategoryEmitsNothing) {
  trace::Tracer tracer(trace::category_bit(Category::kController), 256);
  {
    trace::Tracer::Attach attach(tracer);
    EXPECT_TRUE(trace::on<Category::kController>());
    EXPECT_FALSE(trace::on<Category::kFsm>());
    EXPECT_FALSE(trace::on<Category::kMetrics>());
    // A disciplined emitter checks the gate; emit only what passes.
    if (trace::on<Category::kController>()) {
      trace::emit_instant(Category::kController, Op::kReadEnqueue,
                          trace::track_id(Track::kQueue, 0), 10);
    }
    if (trace::on<Category::kFsm>()) {
      ADD_FAILURE() << "masked category passed the gate";
    }
  }
  const auto records = tracer.collect();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].category, Category::kController);
  // Detached again: the gate is off.
  EXPECT_FALSE(trace::on<Category::kController>());
}

TEST(TraceGateTest, AttachNestsAndRestores) {
  trace::Tracer outer(trace::kAllCategories, 256);
  trace::Tracer inner(trace::category_bit(Category::kCache), 256);
  {
    trace::Tracer::Attach a(outer);
    EXPECT_TRUE(trace::on<Category::kFsm>());
    {
      trace::Tracer::Attach b(inner);
      EXPECT_FALSE(trace::on<Category::kFsm>());
      EXPECT_TRUE(trace::on<Category::kCache>());
    }
    EXPECT_TRUE(trace::on<Category::kFsm>());
  }
  EXPECT_FALSE(trace::on<Category::kFsm>());
}

TEST(TraceGateTest, ScopedContextSavesAndRestores) {
  trace::g_tls.base = 0;
  trace::g_tls.track = 0;
  {
    trace::ScopedContext outer(100, 7);
    EXPECT_EQ(trace::g_tls.base, 100u);
    EXPECT_EQ(trace::g_tls.track, 7u);
    {
      trace::ScopedContext nested(200, 9);
      EXPECT_EQ(trace::g_tls.base, 200u);
    }
    EXPECT_EQ(trace::g_tls.base, 100u);
    EXPECT_EQ(trace::g_tls.track, 7u);
  }
  EXPECT_EQ(trace::g_tls.base, 0u);
}

TEST(TraceCategoryTest, ParseSpellings) {
  EXPECT_EQ(trace::parse_categories("all"), trace::kAllCategories);
  EXPECT_EQ(trace::parse_categories(""), trace::kAllCategories);
  EXPECT_EQ(trace::parse_categories("none"), 0u);
  EXPECT_EQ(trace::parse_categories("controller"),
            trace::category_bit(Category::kController));
  EXPECT_EQ(trace::parse_categories("controller,fsm"),
            trace::category_bit(Category::kController) |
                trace::category_bit(Category::kFsm));
  // Unknown names are ignored, not fatal.
  EXPECT_EQ(trace::parse_categories("bogus,cache"),
            trace::category_bit(Category::kCache));
}

TEST(TraceCategoryTest, ListRoundTrips) {
  char buf[128];
  trace::append_category_list(trace::kAllCategories, buf, sizeof(buf));
  EXPECT_EQ(trace::parse_categories(buf), trace::kAllCategories);
  const u32 two = trace::category_bit(Category::kKernel) |
                  trace::category_bit(Category::kPacker);
  trace::append_category_list(two, buf, sizeof(buf));
  EXPECT_EQ(trace::parse_categories(buf), two);
}

TEST(TraceTracerTest, CollectMergesAndSortsByTick) {
  trace::Tracer tracer(trace::kAllCategories, 256);
  {
    trace::Tracer::Attach attach(tracer);
    trace::emit(rec(30));
    trace::emit(rec(10));
    trace::emit(rec(20));
  }
  const auto records = tracer.collect();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].tick, 10u);
  EXPECT_EQ(records[1].tick, 20u);
  EXPECT_EQ(records[2].tick, 30u);
  EXPECT_EQ(tracer.total_pushed(), 3u);
  EXPECT_EQ(tracer.total_dropped(), 0u);
}

// Every thread attaches to the same tracer and hammers its own ring.
// Run under TSAN this proves emission needs no synchronization.
TEST(TraceConcurrencyTest, ManyThreadsEmitIndependently) {
  trace::Tracer tracer(trace::kAllCategories, 1u << 12);
  constexpr int kThreads = 8;
  constexpr u64 kPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      trace::Tracer::Attach attach(tracer);
      for (u64 i = 0; i < kPerThread; ++i) {
        if (trace::on<Category::kKernel>()) {
          trace::emit(rec(i, static_cast<u64>(t)));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(tracer.total_pushed(), kThreads * kPerThread);
  const auto records = tracer.collect();
  EXPECT_EQ(records.size(),
            tracer.total_pushed() - tracer.total_dropped());
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_LE(records[i - 1].tick, records[i].tick);
  }
}

// ---------------------------------------------------------------------------
// JSON sink

// Minimal structural JSON validator: strings (with escapes), balanced
// {}/[], and nothing after the top-level value. Not a full parser, but it
// rejects every truncation/quoting bug a streaming writer can make.
bool json_well_formed(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  bool top_done = false;
  for (const char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        if (top_done) return false;
        in_string = true;
        break;
      case '{':
      case '[':
        if (top_done) return false;
        stack.push_back(c);
        break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        if (stack.empty()) top_done = true;
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        if (stack.empty()) top_done = true;
        break;
      default:
        if (top_done && c != ' ' && c != '\n' && c != '\t' && c != '\r') {
          return false;
        }
        break;
    }
  }
  return top_done && !in_string && stack.empty();
}

TEST(TraceJsonTest, ValidatorSanity) {
  EXPECT_TRUE(json_well_formed("{\"a\": [1, 2, {\"b\": \"x\\\"y\"}]}"));
  EXPECT_FALSE(json_well_formed("{\"a\": [1, 2}"));
  EXPECT_FALSE(json_well_formed("{\"a\": 1} trailing"));
  EXPECT_FALSE(json_well_formed("{\"a\": \"unterminated}"));
}

trace::RunManifest test_manifest() {
  trace::RunManifest m;
  m.version = "test";
  m.git_sha = trace::build_git_sha();
  m.scheme = "tetris";
  m.workload = "unit";
  m.categories = "all";
  m.config_hash = 0x1234abcd5678ef00ull;
  m.seed = 7;
  m.counter_names = {"gauge_a", "gauge_b"};
  return m;
}

TEST(TraceJsonTest, SinkEmitsWellFormedObjectFormat) {
  std::vector<TraceRecord> records;
  records.push_back(rec(1000));
  TraceRecord span;
  span.tick = 2000;
  span.arg0 = 3;
  span.arg1 = 430'000;  // 430 ns duration
  span.track = trace::track_id(Track::kFsm1, 2);
  span.op = Op::kSetPulse;
  span.category = Category::kFsm;
  span.kind = Kind::kSpan;
  records.push_back(span);
  TraceRecord counter;
  counter.tick = 3000;
  counter.track = trace::track_id(Track::kMetrics, 1);
  counter.op = Op::kGauge;
  counter.category = Category::kMetrics;
  counter.kind = Kind::kCounter;
  records.push_back(counter);

  std::ostringstream out;
  trace::write_chrome_trace(out, records, test_manifest());
  const std::string json = out.str();
  EXPECT_TRUE(json_well_formed(json)) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"set_pulse\""), std::string::npos);
  EXPECT_NE(json.find("\"gauge_b\""), std::string::npos);  // named track
  EXPECT_NE(json.find("1234abcd5678ef00"), std::string::npos);
  EXPECT_NE(json.find("\"tool\":\"tetriswrite\""), std::string::npos);
}

TEST(TraceJsonTest, EmptyTraceStillValid) {
  std::ostringstream out;
  trace::write_chrome_trace(out, {}, test_manifest());
  EXPECT_TRUE(json_well_formed(out.str()));
}

TEST(TraceMetricsTest, CsvHasHeaderAndRows) {
  std::vector<TraceRecord> records;
  TraceRecord counter;
  counter.tick = ns(1500);
  counter.track = trace::track_id(Track::kMetrics, 0);
  counter.op = Op::kGauge;
  counter.category = Category::kMetrics;
  counter.kind = Kind::kCounter;
  records.push_back(rec(10));  // non-counter records are skipped
  records.push_back(counter);
  std::ostringstream out;
  trace::write_metrics_csv(out, records, test_manifest());
  const std::string csv = out.str();
  EXPECT_EQ(csv.rfind("time_ns,name,value", 0), 0u);
  EXPECT_NE(csv.find("gauge_a"), std::string::npos);
  EXPECT_EQ(csv.find("event_fire"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Full-system traced runs

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// vips is the most write-intensive profile (WPKI 1.56), so a short run
// still pushes writes through drain -> pack -> FSM execution.
const workload::WorkloadProfile& traced_profile() {
  return workload::profile_by_name("vips");
}

harness::SystemConfig small_traced_config(const std::string& trace_path,
                                          const std::string& csv_path) {
  harness::SystemConfig cfg;
  cfg.cores = 2;
  cfg.instructions_per_core = 200'000;
  cfg.trace.chrome_path = trace_path;
  cfg.trace.metrics_path = csv_path;
  return cfg;
}

TEST(TraceSystemTest, TracedRunProducesValidJsonWithManifest) {
  const std::string path = temp_path("tw_trace_run.json");
  const std::string csv = temp_path("tw_trace_run.csv");
  const auto& profile = traced_profile();
  const harness::RunMetrics m = harness::run_system(
      small_traced_config(path, csv), profile, schemes::SchemeKind::kTetris);
  EXPECT_TRUE(m.completed);
  EXPECT_GT(m.trace_records, 0u);
  EXPECT_GT(m.trace_samples, 0u);

  const std::string json = slurp(path);
  ASSERT_FALSE(json.empty());
  EXPECT_TRUE(json_well_formed(json));
  // Manifest provenance.
  EXPECT_NE(json.find("\"tool\":\"tetriswrite\""), std::string::npos);
  EXPECT_NE(json.find("\"scheme\":\"tetris\""), std::string::npos);
  EXPECT_NE(json.find("\"workload\":\"" + profile.name + "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"config_hash\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\":42"), std::string::npos);
  // Controller activity on bank tracks and FSM pulse spans made it in.
  EXPECT_NE(json.find("\"write_service\""), std::string::npos);
  EXPECT_NE(json.find("\"set_pulse\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"bank\""), std::string::npos);

  const std::string table = slurp(csv);
  EXPECT_EQ(table.rfind("time_ns,name,value", 0), 0u);
  EXPECT_NE(table.find("write_q_depth"), std::string::npos);
  std::remove(path.c_str());
  std::remove(csv.c_str());
}

TEST(TraceSystemTest, SameSeedTracesAreByteIdentical) {
  const std::string a = temp_path("tw_trace_a.json");
  const std::string b = temp_path("tw_trace_b.json");
  const auto& profile = traced_profile();
  (void)harness::run_system(small_traced_config(a, ""), profile,
                            schemes::SchemeKind::kTetris);
  (void)harness::run_system(small_traced_config(b, ""), profile,
                            schemes::SchemeKind::kTetris);
  const std::string ja = slurp(a);
  const std::string jb = slurp(b);
  ASSERT_FALSE(ja.empty());
  EXPECT_EQ(ja, jb);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

u64 traced_run_digest(harness::SystemConfig cfg, const char* profile,
                      const char* file) {
  const std::string path = temp_path(file);
  cfg.trace.chrome_path = path;
  const harness::RunMetrics m = harness::run_system(
      cfg, workload::profile_by_name(profile), schemes::SchemeKind::kTetris);
  EXPECT_TRUE(m.completed);
  EXPECT_GT(m.trace_records, 0u);
  EXPECT_EQ(m.trace_dropped, 0u);
  const u64 h = trace_digest(slurp(path));
  std::remove(path.c_str());
  return h;
}

// Pins the whole record stream, not only run-to-run determinism: a
// controller change that reorders same-tick records (issue, charge,
// completion, brown-out, pause) changes the digest. A deliberate trace
// change re-records the value printed by the failure.
TEST(TraceSystemTest, ControllerTraceStreamIsPinned) {
  harness::SystemConfig palp;
  palp.cores = 2;
  palp.instructions_per_core = 200'000;
  palp.pcm.geometry.subarrays_per_bank = 4;
  palp.controller.palp.enabled = true;
  palp.fault = fault::profile_config(fault::FaultProfile::kHeavy);
  palp.encode.kind = encode::EncoderKind::kCoset;
  palp.batch.max_lines = 4;
  const u64 palp_digest =
      traced_run_digest(palp, "vips", "tw_trace_palp.json");
  EXPECT_EQ(palp_digest, 0x2bca92b21b8a393aull)
      << std::hex << "digest 0x" << palp_digest;

  harness::SystemConfig server =
      harness::load_system_config(TW_CONFIGS_DIR "/server_256b.cfg");
  server.instructions_per_core = 100'000;
  const u64 server_digest =
      traced_run_digest(server, "vips", "tw_trace_server.json");
  EXPECT_EQ(server_digest, 0xfd3878dbc05e01b0ull)
      << std::hex << "digest 0x" << server_digest;
}

TEST(TraceSystemTest, CategoryMaskNarrowsSystemTrace) {
  const std::string path = temp_path("tw_trace_ctl.json");
  const auto& profile = traced_profile();
  harness::SystemConfig cfg = small_traced_config(path, "");
  cfg.trace.categories = trace::category_bit(Category::kController);
  (void)harness::run_system(cfg, profile, schemes::SchemeKind::kTetris);
  const std::string json = slurp(path);
  ASSERT_FALSE(json.empty());
  EXPECT_TRUE(json_well_formed(json));
  EXPECT_NE(json.find("\"write_service\""), std::string::npos);
  EXPECT_EQ(json.find("\"set_pulse\""), std::string::npos);
  EXPECT_EQ(json.find("\"event_fire\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceSystemTest, ConfigHashDistinguishesConfigs) {
  harness::SystemConfig a;
  harness::SystemConfig b;
  EXPECT_EQ(harness::config_hash(a), harness::config_hash(b));
  b.seed = 43;
  EXPECT_NE(harness::config_hash(a), harness::config_hash(b));
  b = a;
  b.controller.write_batch = a.controller.write_batch + 1;
  EXPECT_NE(harness::config_hash(a), harness::config_hash(b));
}

TEST(TraceSystemTest, UntracedRunReportsNoTraceActivity) {
  harness::SystemConfig cfg;
  cfg.cores = 1;
  cfg.instructions_per_core = 5'000;
  EXPECT_FALSE(cfg.trace.enabled());
  const harness::RunMetrics m =
      harness::run_system(cfg, workload::parsec_profiles()[0],
                          schemes::SchemeKind::kDcw);
  EXPECT_EQ(m.trace_records, 0u);
  EXPECT_EQ(m.trace_samples, 0u);
}

// ---------------------------------------------------------------------------
// Metrics snapshotter in isolation

TEST(TraceSnapshotterTest, SamplesOnEpochAndStopsWithSim) {
  sim::Simulator sim;
  stats::Registry reg;
  trace::MetricsSnapshotter snap(sim, reg, us(1));
  double level = 0.0;
  snap.add_gauge("level", [&] { return level; });
  // Keep the sim alive for exactly 5.5 us of activity.
  for (int i = 1; i <= 11; ++i) {
    sim.schedule_at(us(1) * i / 2, [&] { level += 1.0; });
  }
  snap.start();
  sim.run();
  // Snapshots at 1..5 us while activity pends; the chain then dies with
  // the drained simulator instead of ticking forever.
  EXPECT_GE(snap.samples_taken(), 5u);
  EXPECT_LE(snap.samples_taken(), 7u);
  EXPECT_EQ(reg.accumulator("trace.level").count(), snap.samples_taken());
}

}  // namespace
}  // namespace tw

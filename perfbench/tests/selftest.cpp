// Self-tests of the benchmark's own machinery: the probes must not change
// a simulated result, the self-time accounting must close, metric names
// must be well formed, and workload digests must follow the seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <string>
#include <vector>

#include "layers.hpp"
#include "tw/core/factory.hpp"
#include "tw/encode/encoded_scheme.hpp"
#include "tw/fault/fault.hpp"
#include "tw/workload/profiles.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using tw::schemes::SchemeKind;

constexpr SchemeKind kFive[] = {SchemeKind::kDcw, SchemeKind::kFlipNWrite,
                                SchemeKind::kTwoStage, SchemeKind::kThreeStage,
                                SchemeKind::kTetris};

Cell small_cell(SchemeKind kind, bool everything_on, u32 channels = 1) {
  Cell c;
  c.profile = tw::workload::profile_by_name("vips");
  c.kind = kind;
  c.cfg.cores = 2;
  c.cfg.instructions_per_core = 200'000;
  c.cfg.seed = 7;
  c.cfg.pcm.geometry.channels = channels;
  c.cfg.sim_threads = 2;
  if (everything_on) {
    c.profile.content = tw::workload::ContentClass::kCompressible;
    c.cfg.encode.kind = tw::encode::EncoderKind::kCoset;
    c.cfg.batch.max_lines = 4;
    c.cfg.pcm.geometry.subarrays_per_bank = 4;
    c.cfg.controller.palp.enabled = true;
    c.cfg.fault = tw::fault::profile_config(tw::fault::FaultProfile::kLight);
    c.cfg.dram.enabled = true;
    c.cfg.dram.capacity_bytes = 16 * 1024;
    c.cfg.dram.policy = tw::mem::DramPolicy::kMac;
  }
  c.label = "test";
  return c;
}

u64 run_system_digest(const Cell& c) {
  return digest(tw::harness::run_system(c.cfg, c.profile, c.kind));
}

void expect_transparent(const Cell& c) {
  const u64 ref = run_system_digest(c);
  EXPECT_EQ(digest(run_cell(c, nullptr, nullptr)), ref);
  SpanLog log;
  CellProbes probes;
  const tw::harness::RunMetrics m = run_cell(c, &log, &probes);
  EXPECT_TRUE(m.completed);
  EXPECT_EQ(digest(m), ref);
  EXPECT_FALSE(log.collect().empty());
}

TEST(Probes, TransparentPlain) {
  for (const SchemeKind k : kFive) {
    SCOPED_TRACE(std::string(tw::schemes::scheme_name(k)));
    expect_transparent(small_cell(k, false));
  }
}

TEST(Probes, TransparentEverythingOn) {
  for (const SchemeKind k : kFive) {
    SCOPED_TRACE(std::string(tw::schemes::scheme_name(k)));
    const Cell c = small_cell(k, true);
    expect_transparent(c);
    // The features must really be exercised for the check to mean much.
    const auto m = tw::harness::run_system(c.cfg, c.profile, c.kind);
    EXPECT_GT(m.enc_writes, 0u);
    EXPECT_GT(m.dram_hits + m.dram_misses, 0u);
    EXPECT_GT(m.fault_retries, 0u);
  }
}

TEST(Probes, TransparentShardedChannels) {
  expect_transparent(small_cell(SchemeKind::kTetris, false, 4));
}

TEST(Probes, ForwardSchemeQueries) {
  SpanLog log;
  const Cell c = small_cell(SchemeKind::kTetris, true);
  auto inner = tw::encode::wrap_scheme(
      tw::core::make_scheme(c.kind, c.cfg.pcm, c.cfg.tetris),
      c.cfg.encode.kind);
  const std::string name(inner->name());
  ProbedScheme probed(std::move(inner), log);
  EXPECT_EQ(probed.name(), name);
  EXPECT_EQ(probed.kind(), SchemeKind::kTetris);
  EXPECT_TRUE(probed.transforms_content());
  const u32 nominal = probed.effective_budget();
  probed.set_budget_scale(0.5);
  EXPECT_LT(probed.effective_budget(), nominal);
  probed.set_budget_scale(1.0);
  EXPECT_EQ(probed.effective_budget(), nominal);
}

/// Spans of one traced cell, its probes and its wall time.
struct Traced {
  std::vector<Span> spans;
  std::vector<CellProbes> probes;
  std::vector<tw::harness::RunMetrics> results;
  double run_wall_s = 0.0;
};

/// True when `name` is 1-64 characters from [A-Za-z0-9_.-] and starts
/// with a letter or digit (the result format's metric-name rule).
bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

Traced trace_cell(const Cell& c) {
  SpanLog log;
  Traced t;
  Pipeline pipe(c, &log);
  const u64 t0 = log.now_ns();
  pipe.start();
  t.results.push_back(pipe.finish());
  t.run_wall_s = static_cast<double>(log.now_ns() - t0) * 1e-9;
  t.probes.push_back(pipe.probes());
  t.spans = log.collect();
  return t;
}

TEST(Accounting, SelfTimesNonNegativeAndNested) {
  const Traced t = trace_cell(small_cell(SchemeKind::kTetris, true));
  ASSERT_FALSE(t.spans.empty());
  std::vector<u64> child(t.spans.size(), 0);
  for (const Span& s : t.spans) {
    ASSERT_LE(s.start_ns, s.end_ns);
    if (s.parent == kNoParent) continue;
    const Span& p = t.spans[s.parent];
    EXPECT_EQ(p.thread, s.thread);
    EXPECT_LE(p.start_ns, s.start_ns);
    EXPECT_GE(p.end_ns, s.end_ns);
    child[s.parent] += s.duration_ns();
  }
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    EXPECT_LE(child[i], t.spans[i].duration_ns()) << "span " << i;
  }
}

TEST(Accounting, LayersPlusResidualCloseOnWall) {
  const Traced t = trace_cell(small_cell(SchemeKind::kTetris, true));
  const Metrics m =
      layer_metrics(t.spans, t.probes, t.results, t.run_wall_s);
  double self_sum = 0.0, residual = -1.0, wall = -1.0;
  for (const Metric& x : m) {
    if (x.name == "sim.residual_self_s") {
      residual = x.value;
    } else if (x.name == "trace.wall_s") {
      wall = x.value;
    } else if (x.unit == "host_s") {
      ASSERT_NE(x.name.find("_self_s"), std::string::npos) << x.name;
      EXPECT_GE(x.value, 0.0) << x.name;
      self_sum += x.value;
    }
  }
  EXPECT_GE(residual, 0.0);
  EXPECT_NEAR(self_sum + residual, wall, 1e-9);
  EXPECT_DOUBLE_EQ(wall, t.run_wall_s);
}

TEST(Metrics, NamesAreWellFormed) {
  const Traced t = trace_cell(small_cell(SchemeKind::kDcw, false));
  Metrics all = layer_metrics(t.spans, t.probes, t.results, t.run_wall_s);
  const Metrics e2e = end_to_end_metrics(1.0, 1000, 10.0, 0.1);
  all.insert(all.end(), e2e.begin(), e2e.end());
  std::vector<std::string> names;
  for (const Metric& x : all) {
    EXPECT_TRUE(valid_metric_name(x.name)) << x.name;
    EXPECT_FALSE(x.unit.empty()) << x.name;
    names.push_back(x.name);
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
  EXPECT_FALSE(valid_metric_name("bad name"));
  EXPECT_FALSE(valid_metric_name("_lead"));
  EXPECT_FALSE(valid_metric_name(""));
}

/// Digest of a workload's cells with budgets cut down for test speed.
u64 shrunk_workload_digest(const std::string& name, u64 seed) {
  Workload w = make_workload(name, seed, TW_SOURCE_ROOT);
  u64 h = 0;
  for (Cell& c : w.cells) {
    c.cfg.instructions_per_core = 30'000;
    h = h * 31 + digest(run_cell(c, nullptr, nullptr));
  }
  return h;
}

TEST(Digest, FollowsTheSeed) {
  for (const std::string& name : workload_names()) {
    if (name == "paper_matrix") continue;  // 40 cells; same code path
    SCOPED_TRACE(name);
    const u64 a = shrunk_workload_digest(name, 11);
    EXPECT_EQ(a, shrunk_workload_digest(name, 11));
    EXPECT_NE(a, shrunk_workload_digest(name, 12));
  }
}

TEST(Workloads, UnknownNameThrows) {
  EXPECT_THROW(make_workload("nope", 1, TW_SOURCE_ROOT), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench

// Microbenchmarks: per-scheme plan_write throughput — how fast the
// simulator can evaluate each policy on one 64 B cache-line write.

#include <benchmark/benchmark.h>

#include <vector>

#include "tw/common/rng.hpp"
#include "tw/core/factory.hpp"

namespace {

using namespace tw;

struct Fixture {
  pcm::PcmConfig cfg = pcm::table2_config();
  pcm::LineBuf line{8};
  pcm::LogicalLine next{8};

  explicit Fixture(u64 seed) {
    Rng rng(seed);
    for (u32 i = 0; i < 8; ++i) line.set_cell(i, rng.next());
    for (u32 i = 0; i < 8; ++i) {
      u64 w = line.logical(i);
      for (u32 b = 0; b < 10; ++b) {
        w = with_bit(w, static_cast<u32>(rng.below(64)), rng.chance(0.7));
      }
      next.set_word(i, w);
    }
  }
};

void run_scheme(benchmark::State& state, schemes::SchemeKind kind) {
  Fixture f(42);
  const auto scheme = core::make_scheme(kind, f.cfg);
  for (auto _ : state) {
    pcm::LineBuf work = f.line;  // plan_write mutates; copy per iteration
    benchmark::DoNotOptimize(scheme->plan_write(work, f.next));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}

void BM_Conventional(benchmark::State& s) {
  run_scheme(s, schemes::SchemeKind::kConventional);
}
void BM_Dcw(benchmark::State& s) { run_scheme(s, schemes::SchemeKind::kDcw); }
void BM_Fnw(benchmark::State& s) {
  run_scheme(s, schemes::SchemeKind::kFlipNWrite);
}
void BM_TwoStage(benchmark::State& s) {
  run_scheme(s, schemes::SchemeKind::kTwoStage);
}
void BM_ThreeStage(benchmark::State& s) {
  run_scheme(s, schemes::SchemeKind::kThreeStage);
}
void BM_Tetris(benchmark::State& s) {
  run_scheme(s, schemes::SchemeKind::kTetris);
}
void BM_TetrisSelfCheck(benchmark::State& s) {
  Fixture f(42);
  core::TetrisOptions opts;
  opts.self_check = true;
  const auto scheme =
      core::make_scheme(schemes::SchemeKind::kTetris, f.cfg, opts);
  for (auto _ : s) {
    pcm::LineBuf work = f.line;
    benchmark::DoNotOptimize(scheme->plan_write(work, f.next));
  }
}

/// Multi-line joint packing: plan_write_batch over K same-bank lines.
void BM_TetrisBatch(benchmark::State& state) {
  const u32 k = static_cast<u32>(state.range(0));
  const auto scheme =
      core::make_scheme(schemes::SchemeKind::kTetris, Fixture(42).cfg);
  std::vector<Fixture> fixtures;
  for (u32 j = 0; j < k; ++j) fixtures.emplace_back(42 + j);
  for (auto _ : state) {
    std::vector<pcm::LineBuf> work;
    std::vector<pcm::LineBuf*> lines;
    std::vector<pcm::LogicalLine> datas;
    for (u32 j = 0; j < k; ++j) {
      work.push_back(fixtures[j].line);
      datas.push_back(fixtures[j].next);
    }
    for (u32 j = 0; j < k; ++j) lines.push_back(&work[j]);
    benchmark::DoNotOptimize(scheme->plan_write_batch(
        {lines.data(), lines.size()}, {datas.data(), datas.size()}));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * k);
}

BENCHMARK(BM_Conventional);
BENCHMARK(BM_Dcw);
BENCHMARK(BM_Fnw);
BENCHMARK(BM_TwoStage);
BENCHMARK(BM_ThreeStage);
BENCHMARK(BM_Tetris);
BENCHMARK(BM_TetrisSelfCheck);
BENCHMARK(BM_TetrisBatch)->Arg(2)->Arg(4)->Arg(8);

}  // namespace

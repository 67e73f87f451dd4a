// Tests for the auxiliary substrate: the SVG chart emitter and the MLC
// cell model.

#include <gtest/gtest.h>

#include <sstream>

#include "tw/common/svg.hpp"
#include "tw/core/factory.hpp"
#include "tw/pcm/mlc.hpp"

namespace tw {
namespace {

// ------------------------------------------------------------------- svg --
TEST(Svg, RendersWellFormedChart) {
  BarChart chart("Figure X", "normalized");
  chart.set_series({"dcw", "tetris"});
  chart.add_group("vips", {1.0, 0.35});
  chart.add_group("ferret", {1.0, 0.4});
  chart.set_reference(1.0);
  const std::string svg = chart.to_string();
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("Figure X"), std::string::npos);
  EXPECT_NE(svg.find("vips"), std::string::npos);
  EXPECT_NE(svg.find("tetris"), std::string::npos);
  EXPECT_NE(svg.find("stroke-dasharray"), std::string::npos);  // ref line
  // 2 groups x 2 series bars + legend swatches.
  std::size_t rects = 0, pos = 0;
  while ((pos = svg.find("<rect", pos)) != std::string::npos) {
    ++rects;
    ++pos;
  }
  EXPECT_GE(rects, 1u + 4u + 2u);  // background + bars + legend
}

TEST(Svg, EscapesMarkup) {
  BarChart chart("a < b & c", "y");
  chart.set_series({"s"});
  chart.add_group("<g>", {1.0});
  const std::string svg = chart.to_string();
  EXPECT_EQ(svg.find("<g>"), std::string::npos);
  EXPECT_NE(svg.find("&lt;g&gt;"), std::string::npos);
  EXPECT_NE(svg.find("a &lt; b &amp; c"), std::string::npos);
}

TEST(Svg, MismatchedSeriesRejected) {
  BarChart chart("t", "y");
  chart.set_series({"a", "b"});
  EXPECT_THROW(chart.add_group("g", {1.0}), ContractViolation);
}

// ------------------------------------------------------------------- mlc --
TEST(Mlc, GrayCodedLevels) {
  EXPECT_EQ(pcm::mlc_level(false, false), 0u);
  EXPECT_EQ(pcm::mlc_level(false, true), 1u);
  EXPECT_EQ(pcm::mlc_level(true, true), 2u);
  EXPECT_EQ(pcm::mlc_level(true, false), 3u);
}

TEST(Mlc, AdjacentLevelsDifferInOneBit) {
  // The Gray property: stepping one level flips exactly one data bit.
  const bool encoding[4][2] = {
      {false, false}, {false, true}, {true, true}, {true, false}};
  for (u32 l = 0; l + 1 < 4; ++l) {
    const int diff = (encoding[l][0] != encoding[l + 1][0]) +
                     (encoding[l][1] != encoding[l + 1][1]);
    EXPECT_EQ(diff, 1) << "levels " << l << "," << l + 1;
  }
}

TEST(Mlc, LevelsOfWord) {
  // Word 0b1001: cell0 = bits1:0 = 01 -> level 1; cell1 = bits3:2 = 10
  // -> level 3.
  const auto levels = pcm::mlc_levels(0b1001);
  EXPECT_EQ(levels[0], 1u);
  EXPECT_EQ(levels[1], 3u);
  EXPECT_EQ(levels[2], 0u);
}

TEST(Mlc, IdenticalDataCostsNothing) {
  const pcm::MlcWriteCost c =
      pcm::mlc_write_cost(0xDEADBEEF, 0xDEADBEEF, pcm::MlcParams{});
  EXPECT_EQ(c.cells_changed, 0u);
  EXPECT_EQ(c.program_time, 0u);
}

TEST(Mlc, CostScalesWithChangedCells) {
  const pcm::MlcParams p;
  const pcm::MlcWriteCost one = pcm::mlc_write_cost(0, 0b01, p);
  EXPECT_EQ(one.cells_changed, 1u);
  EXPECT_EQ(one.total_iterations, p.program_iterations[1]);
  EXPECT_EQ(one.program_time,
            p.program_iterations[1] * (p.iteration_pulse + p.verify_read));

  // Parallel programming: time is the max train, not the sum.
  const pcm::MlcWriteCost two = pcm::mlc_write_cost(0, 0b0101, p);
  EXPECT_EQ(two.cells_changed, 2u);
  EXPECT_EQ(two.program_time, one.program_time);
  EXPECT_EQ(two.total_iterations, 2 * one.total_iterations);
}

TEST(Mlc, WorstCellTimeIsSlowestLevel) {
  pcm::MlcParams p;
  p.program_iterations = {1, 9, 5, 2};
  EXPECT_EQ(p.worst_cell_time(), 9 * (p.iteration_pulse + p.verify_read));
}

TEST(Mlc, EffectiveConfigValidAndSlower) {
  const pcm::PcmConfig slc = pcm::table2_config();
  const pcm::PcmConfig mlc =
      pcm::mlc_effective_config(slc, pcm::MlcParams{});
  EXPECT_NO_THROW(mlc.validate());
  EXPECT_GT(mlc.timing.t_set, slc.timing.t_reset);
  EXPECT_GE(mlc.timing.t_reset, slc.timing.t_reset);
  EXPECT_EQ(mlc.geometry.banks, slc.geometry.banks);
  // All schemes still run on the MLC config.
  for (const auto kind : core::all_scheme_kinds()) {
    const auto scheme = core::make_scheme(kind, mlc);
    pcm::LineBuf line(8);
    pcm::LogicalLine next(8);
    next.set_word(0, 0xF0F0);
    EXPECT_GT(scheme->plan_write(line, next).latency, 0u);
  }
}

}  // namespace
}  // namespace tw

#pragma once
// The benchmark's workloads: each is a fixed list of simulation cells
// derived from the seed. See perfbench/README.md for why each exists.

#include <string>
#include <vector>

#include "pipeline.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  std::vector<Cell> cells;
  /// Cells form the paper's profile x {dcw, fnw, 2stage, 3stage, tetris}
  /// matrix (DCW first), checked against Figs. 11-14.
  bool paper_matrix = false;
};

/// Names accepted by make_workload, in documentation order.
const std::vector<std::string>& workload_names();

/// Build workload `name` for `seed`. `root` is the source tree holding
/// configs/. Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, u64 seed,
                       const std::string& root);

/// Result of comparing a paper matrix against the paper's Figs. 11-14.
struct PaperCheck {
  /// Mean |measured geomean - paper average| / paper average, in percent,
  /// over the 16 (figure, scheme) numbers.
  double err_pct = 0.0;
  /// Every figure ranks fnw, 2stage, 3stage, tetris as the paper does.
  bool ranking_ok = true;
  std::vector<std::string> lines;  ///< one human-readable line per figure
};

/// `results` in the workload's cell order.
PaperCheck check_paper(const Workload& w,
                       const std::vector<tw::harness::RunMetrics>& results);

/// Checks that a workload's results exercise the layers it was chosen
/// for (for instance that the DRAM tier wrote back). Empty when they do,
/// else the first missing property.
std::string check_coverage(const Workload& w,
                           const std::vector<tw::harness::RunMetrics>& results);

}  // namespace perfbench

#include "tw/workload/profiles.hpp"

#include <algorithm>
#include <string>

#include "tw/common/assert.hpp"

namespace tw::workload {
namespace {

// A full-line rewrite changes ~29 bits/unit after inversion, split about
// evenly between SETs and RESETs (SETs run slightly hotter because the
// first-touch content of SET-dominant workloads is zero-rich); the
// small-write Poisson means are
// back-solved so the mixture hits the Figure 3 targets:
//   fig3 = p * kBigMean + (1-p) * mean_small.
constexpr double kBigMeanResets = 12.6;
constexpr double kBigMeanSets = 15.6;

WorkloadProfile make(std::string name, std::string domain, double rpki,
                     double wpki, double fig3_r, double fig3_s,
                     double line_rewrite, Level sharing, Level exchange) {
  WorkloadProfile p;
  p.name = std::move(name);
  p.domain = std::move(domain);
  p.rpki = rpki;
  p.wpki = wpki;
  p.fig3_resets = fig3_r;
  p.fig3_sets = fig3_s;
  p.line_rewrite_prob = line_rewrite;
  p.mean_resets = std::max(
      0.05, (fig3_r - line_rewrite * kBigMeanResets) / (1.0 - line_rewrite));
  p.mean_sets = std::max(
      0.05, (fig3_s - line_rewrite * kBigMeanSets) / (1.0 - line_rewrite));
  p.sharing = sharing;
  p.exchange = exchange;
  // SET-dominant small writes consume zero bits; start those workloads'
  // memory zero-rich so short reuse chains do not starve of SET targets.
  const double drift = p.mean_sets - p.mean_resets;
  p.initial_ones_fraction =
      drift > 1.0 ? std::max(0.30, 0.5 - drift / 48.0) : 0.5;
  return p;
}

}  // namespace

const std::vector<WorkloadProfile>& parsec_profiles() {
  // RPKI/WPKI straight from Table III. Fig. 3 per-unit RESET/SET bars are
  // estimated under the paper's stated constraints (avg 2.9 + 6.7,
  // blackscholes ~2, vips ~19, vips/ferret near fifty-fifty). The
  // line-rewrite probabilities encode each workload's fraction of
  // fresh-content writes (high for streaming media/storage, low for
  // pointer-chasing and financial kernels).
  static const std::vector<WorkloadProfile> kProfiles = {
      make("blackscholes", "Financial Analysis", 0.04, 0.02, 0.5, 1.5,
           0.01, Level::kLow, Level::kLow),
      make("bodytrack", "Computer Vision", 0.72, 0.24, 2.0, 7.0, 0.10,
           Level::kHigh, Level::kMedium),
      make("canneal", "Engineering", 2.76, 0.19, 1.0, 4.5, 0.05,
           Level::kHigh, Level::kHigh),
      make("dedup", "Enterprise Storage", 0.82, 0.49, 3.5, 12.0, 0.22,
           Level::kHigh, Level::kHigh),
      make("ferret", "Similarity Search", 1.67, 0.95, 6.0, 7.0, 0.42,
           Level::kHigh, Level::kHigh),
      make("freqmine", "Data Mining", 0.62, 0.25, 1.8, 6.0, 0.10,
           Level::kHigh, Level::kMedium),
      make("swaptions", "Financial Analysis", 0.04, 0.02, 0.7, 2.8, 0.02,
           Level::kLow, Level::kLow),
      make("vips", "Media Processing", 2.56, 1.56, 8.8, 10.2, 0.60,
           Level::kLow, Level::kMedium),
  };
  return kProfiles;
}

const WorkloadProfile* find_profile(std::string_view name) {
  for (const auto& p : parsec_profiles()) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

const WorkloadProfile& profile_by_name(std::string_view name) {
  const WorkloadProfile* p = find_profile(name);
  if (p == nullptr) {
    TW_FAIL(("unknown workload: " + std::string(name)).c_str());
  }
  return *p;
}

const char* content_class_name(ContentClass c) {
  switch (c) {
    case ContentClass::kMutate:
      return "mutate";
    case ContentClass::kCompressible:
      return "compressible";
    case ContentClass::kZipfByte:
      return "zipf";
    case ContentClass::kAdversarial:
      return "adversarial";
  }
  TW_FAIL("unknown content class");
}

double shared_fraction(Level sharing) {
  switch (sharing) {
    case Level::kLow:
      return 0.05;
    case Level::kMedium:
      return 0.25;
    case Level::kHigh:
      return 0.50;
  }
  return 0.25;
}

}  // namespace tw::workload

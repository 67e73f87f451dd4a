#include "tw/core/factory.hpp"

#include <string>

#include "tw/common/assert.hpp"
#include "tw/schemes/conventional.hpp"
#include "tw/schemes/dcw.hpp"
#include "tw/schemes/flip_n_write.hpp"
#include "tw/schemes/preset.hpp"
#include "tw/schemes/three_stage.hpp"
#include "tw/schemes/two_stage.hpp"

namespace tw::core {

using schemes::SchemeKind;
using schemes::WriteScheme;

std::unique_ptr<WriteScheme> make_scheme(SchemeKind kind,
                                         const pcm::PcmConfig& cfg,
                                         const TetrisOptions& tetris_opts) {
  switch (kind) {
    case SchemeKind::kConventional:
      return std::make_unique<schemes::ConventionalWrite>(cfg);
    case SchemeKind::kDcw:
      return std::make_unique<schemes::DcwWrite>(cfg);
    case SchemeKind::kFlipNWrite:
      return std::make_unique<schemes::FlipNWrite>(cfg, false);
    case SchemeKind::kFlipNWriteActual:
      return std::make_unique<schemes::FlipNWrite>(cfg, true);
    case SchemeKind::kTwoStage:
      return std::make_unique<schemes::TwoStageWrite>(cfg, false);
    case SchemeKind::kTwoStageActual:
      return std::make_unique<schemes::TwoStageWrite>(cfg, true);
    case SchemeKind::kThreeStage:
      return std::make_unique<schemes::ThreeStageWrite>(cfg, false);
    case SchemeKind::kThreeStageActual:
      return std::make_unique<schemes::ThreeStageWrite>(cfg, true);
    case SchemeKind::kPreset:
      return std::make_unique<schemes::PresetWrite>(cfg, false);
    case SchemeKind::kPresetActual:
      return std::make_unique<schemes::PresetWrite>(cfg, true);
    case SchemeKind::kTetris:
      return std::make_unique<TetrisScheme>(cfg, tetris_opts);
  }
  TW_FAIL("unknown scheme kind");
}

std::optional<SchemeKind> scheme_kind_from_name(std::string_view name) {
  for (const SchemeKind kind : all_scheme_kinds()) {
    if (schemes::scheme_name(kind) == name) return kind;
  }
  return std::nullopt;
}

std::unique_ptr<WriteScheme> make_scheme(std::string_view name,
                                         const pcm::PcmConfig& cfg,
                                         const TetrisOptions& tetris_opts) {
  const std::optional<SchemeKind> kind = scheme_kind_from_name(name);
  if (!kind) TW_FAIL(("unknown scheme name: " + std::string(name)).c_str());
  return make_scheme(*kind, cfg, tetris_opts);
}

std::vector<SchemeKind> all_scheme_kinds() {
  return {SchemeKind::kConventional,    SchemeKind::kDcw,
          SchemeKind::kFlipNWrite,      SchemeKind::kTwoStage,
          SchemeKind::kThreeStage,      SchemeKind::kTetris,
          SchemeKind::kFlipNWriteActual, SchemeKind::kTwoStageActual,
          SchemeKind::kThreeStageActual, SchemeKind::kPreset,
          SchemeKind::kPresetActual};
}

}  // namespace tw::core

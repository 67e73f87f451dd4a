#pragma once
// Factory for every write scheme, including Tetris Write. Lives above both
// tw::schemes (baselines) and the Tetris implementation.

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "tw/core/tetris_scheme.hpp"
#include "tw/schemes/write_scheme.hpp"

namespace tw::core {

/// Instantiate a scheme by kind. Tetris options apply only to the Tetris
/// kinds and are ignored otherwise.
std::unique_ptr<schemes::WriteScheme> make_scheme(
    schemes::SchemeKind kind, const pcm::PcmConfig& cfg,
    const TetrisOptions& tetris_opts = {});

/// The kind whose canonical short name (schemes::scheme_name) is `name`;
/// nullopt if there is none.
std::optional<schemes::SchemeKind> scheme_kind_from_name(std::string_view name);

/// Instantiate a scheme by its canonical short name ("conventional",
/// "dcw", "fnw", "2stage", "3stage", "tetris", "fnw-actual",
/// "2stage-actual", "3stage-actual"). Throws ContractViolation on unknown
/// names.
std::unique_ptr<schemes::WriteScheme> make_scheme(
    std::string_view name, const pcm::PcmConfig& cfg,
    const TetrisOptions& tetris_opts = {});

/// All scheme kinds, in presentation order.
std::vector<schemes::SchemeKind> all_scheme_kinds();

}  // namespace tw::core

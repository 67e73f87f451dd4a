#pragma once
// INI-style experiment configuration files: dotted "key = value" lines,
// with round-trip serialization so experiment setups can be archived
// next to their results.
//
//   # example.cfg
//   pcm.t_set_ns = 430
//   pcm.chip_budget = 32
//   controller.drain = strict
//   sys.cores = 4
//
// The keys cover the Table II device (timing, power, geometry, channels),
// the controller's queue, drain, coalescing, forwarding, pausing, Start-Gap
// and batch knobs, PALP, the DRAM tier, the content encoder, batch
// packing, the core model, Tetris's analysis cycles and self-overlap
// rule, fault injection, the XBar latency, and the run shape (cores,
// instructions, seed, sim threads). The other SystemConfig fields have no
// key and keep their defaults: among them the capacity, ranks and data
// unit width, energies, read bus time, forward latency, pause quantum,
// the remaining Tetris options, tracing and max_sim_time.
//
// Unknown keys and malformed values throw std::runtime_error with the
// offending line number.

#include <iosfwd>
#include <string>
#include <string_view>

#include "tw/harness/experiment.hpp"

namespace tw::harness {

/// Set one key from its text, exactly as a config line would. Throws
/// std::runtime_error naming the key on an unknown key or a bad value.
void set_config_key(SystemConfig& cfg, std::string_view key,
                    std::string_view value);

/// Parse a config stream into a SystemConfig (starting from defaults).
SystemConfig parse_system_config(std::istream& in);

/// Load a config file. Throws std::runtime_error on I/O or parse errors.
SystemConfig load_system_config(const std::string& path);

/// Serialize every key as "key = value" lines (parse round-trips). The
/// fault.profile preset is not written; the fault fields it sets are.
void write_system_config(const SystemConfig& cfg, std::ostream& out);

}  // namespace tw::harness

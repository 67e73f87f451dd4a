#include "tw/harness/config_file.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <variant>

#include "tw/common/strings.hpp"

namespace tw::harness {
namespace {

/// The SystemConfig field behind a key. The field's type is the value
/// kind: integer, bool, double or named enum. A u64 field may instead be
/// a Tick written in ns or a byte count written in MB (Key::unit). A
/// FaultConfig field is an alias: the key names a preset that replaces
/// every fault field, and the writer skips it.
using Field = std::variant<u32*, u64*, bool*, double*, pcm::ChannelInterleave*,
                           mem::ControllerConfig::DrainPolicy*,
                           mem::DramPolicy*, encode::EncoderKind*,
                           fault::FaultConfig*>;

enum class Unit : u8 { kPlain, kNs, kMb };
enum class Rule : u8 { kAny, kPositive, kPowerOfTwo };

struct Key {
  std::string_view name;
  Field (*field)(SystemConfig&);
  Unit unit = Unit::kPlain;
  Rule rule = Rule::kAny;
  /// Enum value names, indexed by the enum's value.
  std::span<const char* const> names = {};
  /// Why the rule holds; appended to the key's error message.
  std::string_view why = {};
};

constexpr const char* kInterleaveNames[] = {"line", "bank", "row"};
constexpr const char* kDrainNames[] = {"strict", "opportunistic"};
constexpr const char* kDramPolicyNames[] = {"lru", "mac"};
constexpr const char* kEncoderNames[] = {"none", "flip", "wire", "coset"};

// Every config-file key, in the order write_system_config emits them.
const Key kKeys[] = {
    // -- device timing / power / geometry ---------------------------------
    {"pcm.t_read_ns",
     [](SystemConfig& c) -> Field { return &c.pcm.timing.t_read; }, Unit::kNs},
    {"pcm.t_reset_ns",
     [](SystemConfig& c) -> Field { return &c.pcm.timing.t_reset; },
     Unit::kNs},
    {"pcm.t_set_ns",
     [](SystemConfig& c) -> Field { return &c.pcm.timing.t_set; }, Unit::kNs},
    {"pcm.chip_budget",
     [](SystemConfig& c) -> Field { return &c.pcm.power.chip_budget; }},
    {"pcm.reset_current_ratio",
     [](SystemConfig& c) -> Field {
       return &c.pcm.power.reset_current_ratio_l;
     }},
    {"pcm.gcp",
     [](SystemConfig& c) -> Field { return &c.pcm.power.global_charge_pump; }},
    {"pcm.chips_per_bank",
     [](SystemConfig& c) -> Field { return &c.pcm.geometry.chips_per_bank; }},
    {"pcm.chip_write_bits",
     [](SystemConfig& c) -> Field { return &c.pcm.geometry.chip_write_bits; }},
    {"pcm.line_bytes",
     [](SystemConfig& c) -> Field {
       return &c.pcm.geometry.cache_line_bytes;
     }},
    {"pcm.banks",
     [](SystemConfig& c) -> Field { return &c.pcm.geometry.banks; }},
    {"pcm.subarrays",
     [](SystemConfig& c) -> Field {
       return &c.pcm.geometry.subarrays_per_bank;
     },
     Unit::kPlain, Rule::kPowerOfTwo, {},
     "the row decoder extracts log2(subarrays) address bits"},
    {"pcm.channels",
     [](SystemConfig& c) -> Field { return &c.pcm.geometry.channels; },
     Unit::kPlain, Rule::kPowerOfTwo, {},
     "the channel decoder extracts log2(channels) address bits"},
    {"pcm.channel_interleave",
     [](SystemConfig& c) -> Field {
       return &c.pcm.geometry.channel_interleave;
     },
     Unit::kPlain, Rule::kAny, kInterleaveNames},
    // -- controller --------------------------------------------------------
    {"controller.read_queue",
     [](SystemConfig& c) -> Field {
       return &c.controller.read_queue_entries;
     }},
    {"controller.write_queue",
     [](SystemConfig& c) -> Field {
       return &c.controller.write_queue_entries;
     }},
    {"controller.drain",
     [](SystemConfig& c) -> Field { return &c.controller.drain; },
     Unit::kPlain, Rule::kAny, kDrainNames},
    {"controller.drain_low",
     [](SystemConfig& c) -> Field {
       return &c.controller.drain_low_watermark;
     }},
    {"controller.write_coalescing",
     [](SystemConfig& c) -> Field { return &c.controller.write_coalescing; }},
    {"controller.read_forwarding",
     [](SystemConfig& c) -> Field { return &c.controller.read_forwarding; }},
    {"controller.write_pausing",
     [](SystemConfig& c) -> Field { return &c.controller.write_pausing; }},
    {"controller.wear_leveling",
     [](SystemConfig& c) -> Field { return &c.controller.wear_leveling; }},
    {"controller.gap_interval",
     [](SystemConfig& c) -> Field {
       return &c.controller.start_gap.gap_write_interval;
     }},
    {"controller.gap_region_lines",
     [](SystemConfig& c) -> Field {
       return &c.controller.start_gap.region_lines;
     }},
    {"controller.write_batch",
     [](SystemConfig& c) -> Field { return &c.controller.write_batch; }},
    // -- partition-level parallelism (PALP) ---------------------------------
    {"palp.enabled",
     [](SystemConfig& c) -> Field { return &c.controller.palp.enabled; }},
    {"palp.write_ways",
     [](SystemConfig& c) -> Field { return &c.controller.palp.write_ways; }},
    {"palp.max_rww_reads",
     [](SystemConfig& c) -> Field {
       return &c.controller.palp.max_rww_reads;
     }},
    // -- DRAM front tier -----------------------------------------------------
    {"dram.enabled", [](SystemConfig& c) -> Field { return &c.dram.enabled; }},
    {"dram.capacity_mb",
     [](SystemConfig& c) -> Field { return &c.dram.capacity_bytes; },
     Unit::kMb},
    {"dram.ways", [](SystemConfig& c) -> Field { return &c.dram.ways; }},
    {"dram.policy", [](SystemConfig& c) -> Field { return &c.dram.policy; },
     Unit::kPlain, Rule::kAny, kDramPolicyNames},
    {"dram.t_row_hit_ns",
     [](SystemConfig& c) -> Field { return &c.dram.t_row_hit; }, Unit::kNs},
    {"dram.t_row_miss_ns",
     [](SystemConfig& c) -> Field { return &c.dram.t_row_miss; }, Unit::kNs},
    {"dram.row_lines",
     [](SystemConfig& c) -> Field { return &c.dram.row_lines; }},
    {"dram.banks", [](SystemConfig& c) -> Field { return &c.dram.banks; }},
    {"dram.pending_limit",
     [](SystemConfig& c) -> Field { return &c.dram.pending_limit; }},
    {"dram.mac_group",
     [](SystemConfig& c) -> Field { return &c.dram.mac_group; }},
    // -- content-encoder pre-stage -----------------------------------------
    {"encode.kind", [](SystemConfig& c) -> Field { return &c.encode.kind; },
     Unit::kPlain, Rule::kAny, kEncoderNames},
    // -- multi-line batch packing -----------------------------------------
    {"batch.max_lines",
     [](SystemConfig& c) -> Field { return &c.batch.max_lines; }},
    // -- cores -------------------------------------------------------------
    {"core.clock_ps",
     [](SystemConfig& c) -> Field { return &c.core.clock_period; }},
    {"core.peak_ipc",
     [](SystemConfig& c) -> Field { return &c.core.peak_ipc; }},
    {"core.mlp", [](SystemConfig& c) -> Field { return &c.core.mlp; }},
    // -- tetris ------------------------------------------------------------
    {"tetris.analysis_cycles",
     [](SystemConfig& c) -> Field { return &c.tetris.analysis_cycles; }},
    {"tetris.forbid_self_overlap",
     [](SystemConfig& c) -> Field { return &c.tetris.forbid_self_overlap; }},
    // -- fault injection ----------------------------------------------------
    {"fault.profile", [](SystemConfig& c) -> Field { return &c.fault; }},
    {"fault.set_fail_prob",
     [](SystemConfig& c) -> Field { return &c.fault.set_fail_prob; }},
    {"fault.reset_fail_prob",
     [](SystemConfig& c) -> Field { return &c.fault.reset_fail_prob; }},
    {"fault.max_retries",
     [](SystemConfig& c) -> Field { return &c.fault.max_retries; }},
    {"fault.retry_widening",
     [](SystemConfig& c) -> Field { return &c.fault.retry_widening; }},
    {"fault.retry_fail_damping",
     [](SystemConfig& c) -> Field { return &c.fault.retry_fail_damping; }},
    {"fault.wear_knee",
     [](SystemConfig& c) -> Field { return &c.fault.wear_knee; }},
    {"fault.worn_fail_prob",
     [](SystemConfig& c) -> Field { return &c.fault.worn_fail_prob; }},
    {"fault.stuck_bank",
     [](SystemConfig& c) -> Field { return &c.fault.stuck_bank; }},
    {"fault.stuck_bank_prob",
     [](SystemConfig& c) -> Field { return &c.fault.stuck_bank_prob; }},
    {"fault.brownout_period_ns",
     [](SystemConfig& c) -> Field { return &c.fault.brownout_period; },
     Unit::kNs},
    {"fault.brownout_duration_ns",
     [](SystemConfig& c) -> Field { return &c.fault.brownout_duration; },
     Unit::kNs},
    {"fault.brownout_budget_factor",
     [](SystemConfig& c) -> Field {
       return &c.fault.brownout_budget_factor;
     }},
    // -- xbar / sharded engine ----------------------------------------------
    {"xbar.latency_ns",
     [](SystemConfig& c) -> Field { return &c.xbar_latency; }, Unit::kNs,
     Rule::kPositive, {},
     "it is also the sharded engine's lockstep quantum"},
    {"sys.sim_threads",
     [](SystemConfig& c) -> Field { return &c.sim_threads; }},
    // -- run ---------------------------------------------------------------
    {"sys.cores", [](SystemConfig& c) -> Field { return &c.cores; }},
    {"sys.instructions",
     [](SystemConfig& c) -> Field { return &c.instructions_per_core; }},
    {"sys.seed", [](SystemConfig& c) -> Field { return &c.seed; }},
};

constexpr u64 kMb = u64{1} << 20;

/// Thrown by the value parsers: what the value must be. set_key turns it
/// into the key's error message.
struct Expected {
  std::string what;
};

u64 parse_uint(std::string_view v, u64 max) {
  u64 out = 0;
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc{} || end != v.data() + v.size() || out > max) {
    throw Expected{"an integer in [0, " + std::to_string(max) + "]"};
  }
  return out;
}

double parse_double(std::string_view v) {
  double out = 0.0;
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc{} || end != v.data() + v.size()) {
    throw Expected{"a number"};
  }
  return out;
}

bool parse_bool(std::string_view v) {
  const std::string s = to_lower(v);
  if (s == "true" || s == "1" || s == "on" || s == "yes") return true;
  if (s == "false" || s == "0" || s == "off" || s == "no") return false;
  throw Expected{"a boolean (true|false|on|off|yes|no|1|0)"};
}

/// A decimal MB value as a byte count: exact for any whole number of
/// bytes (bytes / 2^20 is a dyadic fraction a double holds exactly).
u64 parse_mb(std::string_view v) {
  const double bytes = parse_double(v) * static_cast<double>(kMb);
  if (!(bytes >= 1.0 && bytes < 0x1p64) || bytes != std::floor(bytes)) {
    throw Expected{"a positive whole number of bytes, in MB"};
  }
  return static_cast<u64>(bytes);
}

/// A byte count as an exact decimal MB value (at most 20 fraction digits).
std::string format_mb(u64 bytes) {
  std::string s = std::to_string(bytes / kMb);
  u64 frac = bytes % kMb;
  if (frac != 0) s += '.';
  while (frac != 0) {
    frac *= 10;
    s += static_cast<char>('0' + frac / kMb);
    frac %= kMb;
  }
  return s;
}

/// Shortest text that parses back to exactly `v`.
std::string format_double(double v) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, end);
}

u64 parse_integer(const Key& k, std::string_view v, u64 max) {
  if (k.unit == Unit::kMb) return parse_mb(v);
  const u64 n = parse_uint(v, k.unit == Unit::kNs ? max / 1000 : max);
  if (k.rule == Rule::kPositive && n == 0) throw Expected{">= 1"};
  if (k.rule == Rule::kPowerOfTwo && (n == 0 || (n & (n - 1)) != 0)) {
    throw Expected{"a power of two >= 1"};
  }
  return k.unit == Unit::kNs ? n * 1000 : n;
}

void set_key(SystemConfig& cfg, const Key& k, std::string_view v) {
  try {
    std::visit(
        [&]<class T>(T* f) {
          if constexpr (std::is_same_v<T, bool>) {
            *f = parse_bool(v);
          } else if constexpr (std::is_same_v<T, double>) {
            *f = parse_double(v);
          } else if constexpr (std::is_same_v<T, fault::FaultConfig>) {
            const auto p = fault::parse_fault_profile(v);
            if (!p) throw Expected{"none|light|heavy|stuck-bank"};
            *f = fault::profile_config(*p);
          } else if constexpr (std::is_enum_v<T>) {
            const std::string s = to_lower(v);
            std::string all;
            for (std::size_t i = 0; i < k.names.size(); ++i) {
              if (s == k.names[i]) {
                *f = static_cast<T>(i);
                return;
              }
              all += (i == 0 ? "" : "|") + std::string(k.names[i]);
            }
            throw Expected{all};
          } else {
            *f = parse_integer(k, v, std::numeric_limits<T>::max());
          }
        },
        k.field(cfg));
  } catch (const Expected& e) {
    std::string msg = std::string(k.name) + " must be " + e.what + " (got '" +
                      std::string(v) + "')";
    if (!k.why.empty()) msg += "; " + std::string(k.why);
    throw std::runtime_error(msg);
  }
}

/// The key's value as text that set_key parses back to the same field.
std::string format_key(SystemConfig& cfg, const Key& k) {
  return std::visit(
      [&]<class T>(T* f) -> std::string {
        if constexpr (std::is_same_v<T, bool>) {
          return *f ? "true" : "false";
        } else if constexpr (std::is_same_v<T, double>) {
          return format_double(*f);
        } else if constexpr (std::is_same_v<T, fault::FaultConfig>) {
          return "";  // alias: the fields it sets have keys of their own
        } else if constexpr (std::is_enum_v<T>) {
          return k.names[static_cast<std::size_t>(*f)];
        } else if (k.unit == Unit::kMb) {
          return format_mb(*f);
        } else {
          return std::to_string(k.unit == Unit::kNs ? *f / 1000 : *f);
        }
      },
      k.field(cfg));
}

std::string_view trim(std::string_view s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string_view::npos) return {};
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

}  // namespace

void set_config_key(SystemConfig& cfg, std::string_view key,
                    std::string_view value) {
  for (const Key& k : kKeys) {
    if (k.name == key) return set_key(cfg, k, value);
  }
  throw std::runtime_error("unknown key '" + std::string(key) + "'");
}

SystemConfig parse_system_config(std::istream& in) {
  SystemConfig cfg;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string_view text = trim(std::string_view(line).substr(
        0, std::string_view(line).find('#')));
    if (text.empty()) continue;
    const auto eq = text.find('=');
    try {
      if (eq == std::string_view::npos) {
        throw std::runtime_error("expected key = value");
      }
      set_config_key(cfg, trim(text.substr(0, eq)), trim(text.substr(eq + 1)));
    } catch (const std::runtime_error& e) {
      throw std::runtime_error("config line " + std::to_string(lineno) +
                               ": " + e.what());
    }
  }
  return cfg;
}

SystemConfig load_system_config(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open config file: " + path);
  return parse_system_config(in);
}

void write_system_config(const SystemConfig& cfg, std::ostream& out) {
  SystemConfig copy = cfg;  // Key::field hands out mutable pointers
  out << "# tetriswrite experiment configuration\n";
  for (const Key& k : kKeys) {
    if (std::holds_alternative<fault::FaultConfig*>(k.field(copy))) continue;
    out << k.name << " = " << format_key(copy, k) << "\n";
  }
}

}  // namespace tw::harness

#include "tw/harness/experiment.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <optional>

#include "tw/common/version.hpp"
#include "tw/encode/encoded_scheme.hpp"
#include "tw/fault/fault_model.hpp"
#include "tw/mem/memory_system.hpp"
#include "tw/stats/registry.hpp"
#include "tw/trace/chrome_sink.hpp"
#include "tw/trace/metrics_sink.hpp"
#include "tw/workload/generator.hpp"

namespace tw::harness {

namespace {

/// splitmix64 step: the standard finalizer used to mix config fields.
u64 mix(u64 h, u64 v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 27;
  return h;
}

u64 mix_double(u64 h, double v) {
  u64 bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return mix(h, bits);
}

/// Gauge reporting how much `total()` grew since the previous sample.
template <class Total>
std::function<double()> epoch_delta(Total total) {
  return [total, prev = 0.0]() mutable {
    const double t = total();
    const double d = t - prev;
    prev = t;
    return d;
  };
}

/// epoch_delta of a registry counter.
std::function<double()> counter_delta(stats::Registry& reg,
                                      const char* name) {
  return epoch_delta(
      [&reg, name] { return static_cast<double>(reg.counter(name).value()); });
}

/// Mean of the samples a registry accumulator took since the previous
/// sample (0 when it took none).
std::function<double()> mean_delta(stats::Registry& reg, const char* name) {
  return [&reg, name, prev_sum = 0.0, prev_n = 0.0]() mutable {
    const auto& acc = reg.accumulator(name);
    const double dn = static_cast<double>(acc.count()) - prev_n;
    const double ds = acc.sum() - prev_sum;
    prev_n = static_cast<double>(acc.count());
    prev_sum = acc.sum();
    return dn <= 0.0 ? 0.0 : ds / dn;
  };
}

/// Register the standard gauge set on the snapshotter: queue depths, bank
/// occupancy/utilization, per-epoch traffic, and Tetris budget
/// utilization. Epoch-delta gauges carry their own previous-sample state.
void add_standard_gauges(trace::MetricsSnapshotter& snap,
                         mem::Controller& controller, stats::Registry& reg) {
  snap.add_gauge("read_q_depth",
                 [&] { return static_cast<double>(controller.read_queue_depth()); });
  snap.add_gauge("write_q_depth",
                 [&] { return static_cast<double>(controller.write_queue_depth()); });
  snap.add_gauge("banks_busy", [&] {
    u32 busy = 0;
    for (const auto& b : controller.banks()) {
      if (!b.idle_at(snap.now())) ++busy;
    }
    return static_cast<double>(busy);
  });
  // Fraction of the epoch the banks spent busy, averaged over banks.
  snap.add_gauge("bank_util", [&, prev = u64{0}, prev_now = Tick{0}]() mutable {
    u64 total = 0;
    for (const auto& b : controller.banks()) total += b.busy_total();
    const Tick now = snap.now();
    const u64 dt = (now - prev_now) * controller.banks().size();
    const double util =
        dt == 0 ? 0.0 : static_cast<double>(total - prev) / static_cast<double>(dt);
    prev = total;
    prev_now = now;
    return util;
  });
  snap.add_gauge("reads_epoch", counter_delta(reg, "mem.reads"));
  snap.add_gauge("writes_epoch", counter_delta(reg, "mem.writes"));
  snap.add_gauge("write_units_epoch", epoch_delta([&reg] {
                   return reg.accumulator("mem.write_units").sum();
                 }));
  // Mean packed power-budget utilization of the writes in this epoch
  // (0 when the scheme has no packed schedule, or nothing was written).
  snap.add_gauge("budget_util", mean_delta(reg, "mem.power_utilization"));
  // Mean occupancy of the multi-line joint schedules issued this epoch
  // (0 when batching is off or the scheme serializes its batches).
  snap.add_gauge("batch_occupancy", mean_delta(reg, "mem.batch_occupancy"));
}

/// Gauges for a multi-channel system: aggregate queue depths and traffic
/// across channels, plus per-channel write activity so a trace shows
/// which channels carry the load. Reads cross-registry state only during
/// the serial front phase (sampling happens on the front domain), so no
/// synchronization is needed.
void add_channel_gauges(trace::MetricsSnapshotter& snap,
                        mem::MemorySystem& msys) {
  const u32 channels = msys.channels();
  snap.add_gauge("read_q_depth", [&msys, channels] {
    u64 d = 0;
    for (u32 c = 0; c < channels; ++c) d += msys.channel(c).read_queue_depth();
    return static_cast<double>(d);
  });
  snap.add_gauge("write_q_depth", [&msys, channels] {
    u64 d = 0;
    for (u32 c = 0; c < channels; ++c) d += msys.channel(c).write_queue_depth();
    return static_cast<double>(d);
  });
  snap.add_gauge("banks_busy", [&msys, &snap, channels] {
    u32 busy = 0;
    for (u32 c = 0; c < channels; ++c) {
      for (const auto& b : msys.channel(c).banks()) {
        if (!b.idle_at(snap.now())) ++busy;
      }
    }
    return static_cast<double>(busy);
  });
  const auto summed = [&msys, channels](const char* name) {
    return epoch_delta([&msys, channels, name] {
      double t = 0.0;
      for (u32 c = 0; c < channels; ++c) {
        t += static_cast<double>(
            msys.channel_registry(c)->counter(name).value());
      }
      return t;
    });
  };
  snap.add_gauge("reads_epoch", summed("mem.reads"));
  snap.add_gauge("writes_epoch", summed("mem.writes"));
  for (u32 c = 0; c < channels; ++c) {
    snap.add_gauge("ch" + std::to_string(c) + "_writes_epoch",
                   counter_delta(*msys.channel_registry(c), "mem.writes"));
    snap.add_gauge("ch" + std::to_string(c) + "_write_q_depth", [&msys, c] {
      return static_cast<double>(msys.channel(c).write_queue_depth());
    });
  }
}

/// Feature group whose per-epoch gauges a registry counter feeds.
enum class Feature : u8 { kNone, kFault, kPalp, kDram, kEncode };

using M = RunMetrics;

/// One RunMetrics field read from the merged registry: a counter's value,
/// an accumulator's mean or a histogram's p99 (exactly one field is set).
struct RegistryMetric {
  const char* name;
  u64 M::*count_field;
  double M::*mean_field;
  double M::*p99_field;
  Feature feature;  ///< gauged per epoch when its feature is on
};

constexpr RegistryMetric count(const char* name, u64 M::*field,
                               Feature feature = Feature::kNone) {
  return {name, field, nullptr, nullptr, feature};
}
constexpr RegistryMetric mean(const char* name, double M::*field) {
  return {name, nullptr, field, nullptr, Feature::kNone};
}
constexpr RegistryMetric p99(const char* name, double M::*field) {
  return {name, nullptr, nullptr, field, Feature::kNone};
}

constexpr RegistryMetric kRegistryMetrics[] = {
    mean("mem.read_latency_ns", &M::read_latency_ns),
    mean("mem.write_latency_ns", &M::write_latency_ns),
    mean("mem.write_service_ns", &M::write_service_ns),
    mean("mem.write_units", &M::write_units),
    p99("mem.read_latency_hist_ns", &M::read_p99_ns),
    p99("mem.write_latency_hist_ns", &M::write_p99_ns),
    count("mem.reads", &M::reads),
    count("mem.writes", &M::writes),
    count("mem.write_pauses", &M::write_pauses),
    count("mem.gap_moves", &M::gap_moves),
    count("mem.writes_batched", &M::writes_batched),
    mean("mem.batch_lines", &M::batch_lines),
    mean("mem.batch_occupancy", &M::batch_occupancy),
    count("mem.reads_forwarded", &M::reads_forwarded),
    count("mem.writes_coalesced", &M::writes_coalesced),
    count("mem.dispatch_rounds", &M::dispatch_rounds),
    count("mem.row_hits", &M::row_hits),
    count("mem.fault_retries", &M::fault_retries, Feature::kFault),
    count("mem.failed_lines", &M::failed_lines, Feature::kFault),
    count("mem.brownout_writes", &M::brownout_writes, Feature::kFault),
    count("mem.stuck_remaps", &M::stuck_remaps),
    count("mem.palp_overlapped_reads", &M::palp_overlapped_reads,
          Feature::kPalp),
    count("mem.palp_pump_stalls", &M::palp_pump_stalls, Feature::kPalp),
    count("mem.palp_write_overlaps", &M::palp_write_overlaps, Feature::kPalp),
    count("mem.dram_hits", &M::dram_hits, Feature::kDram),
    count("mem.dram_misses", &M::dram_misses, Feature::kDram),
    count("mem.dram_writebacks", &M::dram_writebacks, Feature::kDram),
    count("mem.dram_clean_evicts", &M::dram_clean_evicts, Feature::kDram),
    count("mem.enc_writes", &M::enc_writes, Feature::kEncode),
    count("mem.enc_coded_units", &M::enc_coded_units, Feature::kEncode),
    count("mem.enc_tag_bits", &M::enc_tag_bits, Feature::kEncode),
};

/// Per-epoch gauge `X_epoch` of each counter `mem.X` whose feature is on.
/// A feature that is off registers none, so its traces keep their exact
/// column set. `on` is indexed by Feature.
void add_feature_gauges(trace::MetricsSnapshotter& snap, stats::Registry& reg,
                        const bool (&on)[5]) {
  for (const RegistryMetric& r : kRegistryMetrics) {
    if (on[static_cast<u8>(r.feature)]) {
      snap.add_gauge(std::string(r.name + 4) + "_epoch",  // drop "mem."
                     counter_delta(reg, r.name));
    }
  }
}

}  // namespace

u64 config_hash(const SystemConfig& cfg) {
  u64 h = 0x243F6A8885A308D3ull;  // pi
  // Device.
  h = mix(h, cfg.pcm.timing.t_read);
  h = mix(h, cfg.pcm.timing.t_reset);
  h = mix(h, cfg.pcm.timing.t_set);
  h = mix(h, cfg.pcm.power.reset_current_ratio_l);
  h = mix(h, cfg.pcm.power.chip_budget);
  h = mix(h, cfg.pcm.power.global_charge_pump ? 1 : 0);
  h = mix(h, cfg.pcm.geometry.chips_per_bank);
  h = mix(h, cfg.pcm.geometry.chip_write_bits);
  h = mix(h, cfg.pcm.geometry.data_unit_bits);
  h = mix(h, cfg.pcm.geometry.cache_line_bytes);
  h = mix(h, cfg.pcm.geometry.banks);
  h = mix(h, cfg.pcm.geometry.ranks);
  h = mix(h, cfg.pcm.geometry.subarrays_per_bank);
  h = mix(h, cfg.pcm.geometry.capacity_bytes);
  // Channel topology.
  h = mix(h, cfg.pcm.geometry.channels);
  h = mix(h, static_cast<u64>(cfg.pcm.geometry.channel_interleave));
  h = mix(h, cfg.xbar_latency);
  h = mix_double(h, cfg.pcm.energy.set_pj);
  h = mix_double(h, cfg.pcm.energy.reset_pj);
  h = mix_double(h, cfg.pcm.energy.read_bit_pj);
  // Controller.
  h = mix(h, cfg.controller.read_queue_entries);
  h = mix(h, cfg.controller.write_queue_entries);
  h = mix(h, static_cast<u64>(cfg.controller.drain));
  h = mix(h, cfg.controller.drain_low_watermark);
  h = mix(h, cfg.controller.read_bus_time);
  h = mix(h, cfg.controller.forward_latency);
  h = mix(h, (cfg.controller.write_coalescing ? 1 : 0) |
                 (cfg.controller.read_forwarding ? 2 : 0) |
                 (cfg.controller.write_pausing ? 4 : 0) |
                 (cfg.controller.wear_leveling ? 8 : 0));
  h = mix(h, cfg.controller.pause_quantum);
  h = mix(h, cfg.controller.start_gap.region_lines);
  h = mix(h, cfg.controller.start_gap.gap_write_interval);
  h = mix(h, cfg.controller.write_batch);
  h = mix(h, (cfg.controller.palp.enabled ? 1 : 0));
  h = mix(h, cfg.controller.palp.write_ways);
  h = mix(h, cfg.controller.palp.max_rww_reads);
  h = mix(h, cfg.batch.max_lines);
  // Core model.
  h = mix(h, cfg.core.clock_period);
  h = mix_double(h, cfg.core.peak_ipc);
  h = mix(h, cfg.core.mlp);
  // Tetris options.
  h = mix(h, cfg.tetris.analysis_cycles);
  h = mix(h, cfg.tetris.analysis_clock_period);
  h = mix(h, static_cast<u64>(cfg.tetris.pack_order));
  h = mix(h, (cfg.tetris.forbid_self_overlap ? 1 : 0) |
                 (cfg.tetris.respect_gcp_setting ? 2 : 0) |
                 (cfg.tetris.self_check ? 4 : 0));
  // Run shape.
  h = mix(h, cfg.cores);
  h = mix(h, cfg.instructions_per_core);
  h = mix(h, cfg.seed);
  h = mix(h, cfg.max_sim_time);
  // Fault injection.
  h = mix_double(h, cfg.fault.set_fail_prob);
  h = mix_double(h, cfg.fault.reset_fail_prob);
  h = mix(h, cfg.fault.max_retries);
  h = mix_double(h, cfg.fault.retry_widening);
  h = mix_double(h, cfg.fault.retry_fail_damping);
  h = mix(h, cfg.fault.wear_knee);
  h = mix_double(h, cfg.fault.worn_fail_prob);
  h = mix(h, cfg.fault.stuck_bank);
  h = mix_double(h, cfg.fault.stuck_bank_prob);
  h = mix(h, cfg.fault.brownout_period);
  h = mix(h, cfg.fault.brownout_duration);
  h = mix_double(h, cfg.fault.brownout_budget_factor);
  // DRAM front tier: mixed only when enabled so every tier-off config
  // keeps the hash it had before the tier existed.
  if (cfg.dram.enabled) {
    h = mix(h, 1);
    h = mix(h, cfg.dram.capacity_bytes);
    h = mix(h, cfg.dram.ways);
    h = mix(h, static_cast<u64>(cfg.dram.policy));
    h = mix(h, cfg.dram.t_row_hit);
    h = mix(h, cfg.dram.t_row_miss);
    h = mix(h, cfg.dram.row_lines);
    h = mix(h, cfg.dram.banks);
    h = mix(h, cfg.dram.pending_limit);
    h = mix(h, cfg.dram.mac_group);
  }
  // Content encoder: mixed only when enabled so every encoder-off config
  // keeps the hash it had before the encoder stage existed.
  if (cfg.encode.enabled()) {
    h = mix(h, 2);
    h = mix(h, static_cast<u64>(cfg.encode.kind));
  }
  return h;
}

RunMetrics run_system(const SystemConfig& cfg,
                      const workload::WorkloadProfile& profile,
                      schemes::SchemeKind kind) {
  sim::Simulator sim;
  stats::Registry reg;

  // The factory gives every channel its own scheme instance (schemes
  // carry mutable planning state); channels == 1 builds exactly one. The
  // configured content encoder wraps each instance as a pre-stage
  // (wrap_scheme is the identity for EncoderKind::kNone).
  const mem::SchemeFactory factory = [&](u32) {
    return encode::wrap_scheme(core::make_scheme(kind, cfg.pcm, cfg.tetris),
                               cfg.encode.kind);
  };
  mem::ControllerConfig ccfg = cfg.controller;
  // batch.max_lines is the canonical multi-line knob: when set it bounds
  // the controller's same-bank write gather (1 = per-line packing).
  if (cfg.batch.max_lines > 0) ccfg.write_batch = cfg.batch.max_lines;
  mem::MemorySystem msys(sim, cfg.pcm, ccfg, factory, reg, cfg.fault,
                         cfg.seed, profile.initial_ones_fraction,
                         cfg.xbar_latency, 0, cfg.dram);
  const u32 channels = msys.channels();
  workload::TraceGenerator gen(profile, cfg.pcm.geometry, cfg.cores,
                               cfg.seed * 0x9E3779B9u + 7);
  cpu::MultiCore cpus(sim, cfg.core, cfg.cores, msys, gen,
                      cfg.instructions_per_core);

  // Observability: attach the tracer to this thread for the duration of
  // the run, sample gauges on the metrics epoch, and serialize at the end.
  // Multi-channel runs bind one pre-created ring per simulation domain
  // instead of a plain thread attach: records collect domain by domain
  // in a fixed order, and each domain has its own ring capacity.
  const bool traced = cfg.trace.enabled();
  std::optional<trace::Tracer> tracer;
  std::optional<trace::Tracer::Attach> attach;
  std::optional<trace::MetricsSnapshotter> snapshotter;
  if (traced) {
    tracer.emplace(cfg.trace.categories, cfg.trace.ring_capacity);
    if (channels == 1) {
      attach.emplace(*tracer);
    } else {
      msys.bind_trace(*tracer);
    }
    snapshotter.emplace(sim, reg, cfg.trace.metrics_epoch);
    if (channels == 1) {
      add_standard_gauges(*snapshotter, msys.channel(0), reg);
    } else {
      add_channel_gauges(*snapshotter, msys);
    }
    const bool single = channels == 1;
    // Indexed by Feature: none, fault, PALP, DRAM, encoder.
    add_feature_gauges(*snapshotter, reg,
                       {false, cfg.fault.enabled() && single,
                        single && msys.channel(0).palp_active(),
                        msys.dram_active(), cfg.encode.enabled() && single});
    snapshotter->start();
  }

  cpus.start();
  msys.run(cfg.max_sim_time);

  RunMetrics m;
  m.workload = profile.name;
  m.scheme = std::string(msys.scheme().name());
  m.completed = cpus.all_finished();

  if (traced) {
    // Final partial epoch, stamped where the run ended: run() has already
    // moved the clocks on to max_sim_time.
    const Tick end = msys.last_event_tick();
    if (channels == 1) {
      snapshotter->sample(end);
      attach.reset();  // stop emitting before collection
    } else {
      // Final partial epoch emits into the front domain's ring.
      trace::Tracer::Attach fin(*tracer, *msys.front_ring());
      snapshotter->sample(end);
    }

    trace::RunManifest manifest;
    manifest.version = kVersionString;
    manifest.git_sha = trace::build_git_sha();
    manifest.scheme = m.scheme;
    manifest.workload = m.workload;
    manifest.config_hash = config_hash(cfg);
    manifest.seed = cfg.seed;
    manifest.counter_names = snapshotter->gauge_names();
    char cats[128];
    trace::append_category_list(tracer->mask(), cats, sizeof(cats));
    manifest.categories = cats;

    const std::vector<trace::TraceRecord> records = tracer->collect();
    if (!cfg.trace.chrome_path.empty()) {
      trace::write_chrome_trace_file(cfg.trace.chrome_path, records,
                                     manifest);
    }
    if (!cfg.trace.metrics_path.empty()) {
      trace::write_metrics_csv_file(cfg.trace.metrics_path, records,
                                    manifest);
    }
    m.trace_records = records.size();
    m.trace_dropped = tracer->total_dropped();
    m.trace_samples = snapshotter->samples_taken();
  }

  // Fold per-channel registries into the main registry (no-op for
  // channels == 1) before harvesting.
  msys.merge_stats();
  for (const RegistryMetric& r : kRegistryMetrics) {
    if (r.count_field) m.*r.count_field = reg.counter(r.name).value();
    if (r.mean_field) m.*r.mean_field = reg.accumulator(r.name).mean();
    if (r.p99_field) m.*r.p99_field = reg.histogram(r.name).percentile(0.99);
  }
  m.sim_events = msys.executed_events();
  m.retired = cpus.total_retired();
  m.ipc = cpus.aggregate_ipc();
  m.runtime_ns = to_ns(cpus.runtime());
  // Per-channel device models aggregate across channels (channels == 1
  // reduces to the plain single-controller reads).
  u64 wear_bits = 0;
  u64 wear_writes = 0;
  m.write_energy_pj = 0.0;
  m.read_energy_pj = 0.0;
  for (u32 c = 0; c < channels; ++c) {
    m.write_energy_pj += msys.channel(c).energy().write_energy_pj();
    m.read_energy_pj += msys.channel(c).energy().read_energy_pj();
    const pcm::WearSummary wear = msys.channel(c).wear().summary();
    wear_bits += wear.total_bits;
    wear_writes += wear.total_writes;
  }
  m.bits_per_write = wear_writes == 0 ? 0.0
                                      : static_cast<double>(wear_bits) /
                                            static_cast<double>(wear_writes);
  m.read_q_peak = 0;
  m.write_q_peak = 0;
  for (u32 c = 0; c < channels; ++c) {
    m.read_q_peak = std::max<u64>(m.read_q_peak,
                                  msys.channel(c).read_queue_peak());
    m.write_q_peak = std::max<u64>(m.write_q_peak,
                                   msys.channel(c).write_queue_peak());
  }
  return m;
}

}  // namespace tw::harness

#pragma once
// Full-system experiment runner: builds simulator + scheme + controller +
// cores + workload for one (workload, scheme) cell and runs it to
// completion, returning the metrics the paper's figures are built from.

#include <string>

#include "tw/core/factory.hpp"
#include "tw/cpu/multicore.hpp"
#include "tw/encode/encoder.hpp"
#include "tw/fault/fault.hpp"
#include "tw/mem/controller.hpp"
#include "tw/mem/dram_tier.hpp"
#include "tw/trace/tracer.hpp"
#include "tw/workload/profiles.hpp"

namespace tw::harness {

/// Observability settings for one run. Tracing activates when either
/// output path is set (records are only collected if someone will read
/// them); the category mask further narrows what gets emitted.
struct TraceConfig {
  std::string chrome_path;   ///< Chrome trace_event JSON ("" = off)
  std::string metrics_path;  ///< metrics-snapshot CSV ("" = off)
  u32 categories = trace::kAllCategories;
  /// Metrics sampling epoch (simulated time between snapshots).
  Tick metrics_epoch = us(1);
  /// Ring capacity in records, per simulation domain (rounded up to a
  /// power of two); long runs keep the most recent window.
  u64 ring_capacity = trace::TraceRing::kDefaultCapacity;

  bool enabled() const {
    return !chrome_path.empty() || !metrics_path.empty();
  }
};

/// Multi-line Tetris batch scheduling (our extension beyond the paper):
/// the controller gathers up to max_lines age-ordered same-bank writes
/// per dispatch and the scheme packs all their units into one schedule.
struct BatchConfig {
  /// Upper bound on lines per joint schedule. 0 leaves the controller's
  /// write_batch setting untouched; >= 1 overrides it (1 = per-line
  /// packing, bit-identical to the unbatched controller).
  u32 max_lines = 0;
};

/// Everything configurable about one simulation (Table II defaults).
struct SystemConfig {
  pcm::PcmConfig pcm;                  ///< device + geometry + power
  mem::ControllerConfig controller;    ///< FRFCFS queues + drain policy
  cpu::CoreConfig core;                ///< 2 GHz, peak IPC, MLP window
  core::TetrisOptions tetris;          ///< analysis overhead etc.
  fault::FaultConfig fault;            ///< fault injection (off by default)
  BatchConfig batch;                   ///< multi-line batch packing
  mem::DramConfig dram;                ///< DRAM front tier (off by default)
  encode::EncodeConfig encode;         ///< content encoder (off by default)
  TraceConfig trace;                   ///< structured tracing (off by default)
  u32 cores = 4;
  u64 instructions_per_core = 200'000;
  u64 seed = 42;
  /// XBar hop latency between the CPU front-end and a channel controller;
  /// also the sharded engine's lockstep quantum. Only modeled when
  /// pcm.geometry.channels > 1.
  Tick xbar_latency = ns(20);
  /// Read by nothing; goes when perfbench drops its two-thread check pass.
  u32 sim_threads = 0;
  /// Safety cap on simulated time; a run that exceeds it is marked
  /// incomplete rather than hanging.
  Tick max_sim_time = ms(10'000);
};

/// Field-mixing hash of everything that shapes a run's behavior (device
/// timing/geometry/power, controller policy, core model, Tetris options,
/// core count, budgets, seed). Stored in trace manifests so a trace file
/// identifies the exact configuration that produced it.
u64 config_hash(const SystemConfig& cfg);

/// Metrics of one completed run.
struct RunMetrics {
  std::string workload;
  std::string scheme;
  bool completed = false;

  double read_latency_ns = 0.0;   ///< mean memory read latency
  double write_latency_ns = 0.0;  ///< mean write latency (queue + service)
  double write_service_ns = 0.0;  ///< mean write service time alone
  double write_units = 0.0;       ///< mean serial write units per line
  double ipc = 0.0;               ///< whole-system IPC
  double runtime_ns = 0.0;        ///< time to retire all budgets
  u64 reads = 0;
  u64 writes = 0;
  u64 retired = 0;
  u64 sim_events = 0;  ///< simulator events executed (kernel throughput)
  double write_energy_pj = 0.0;
  double read_energy_pj = 0.0;
  double bits_per_write = 0.0;    ///< programmed bits per line write (wear)
  double read_p99_ns = 0.0;
  double write_p99_ns = 0.0;
  u64 write_pauses = 0;   ///< write-pausing preemptions
  u64 gap_moves = 0;      ///< Start-Gap migration writes
  u64 writes_batched = 0; ///< writes serviced in multi-line batches
  double batch_lines = 0.0;      ///< mean lines per multi-line batch issue
  double batch_occupancy = 0.0;  ///< mean budget utilization of joint packs
  // Controller queue statistics.
  u64 reads_forwarded = 0;   ///< reads served from queued write data
  u64 writes_coalesced = 0;  ///< writes merged into a queued same-line write
  u64 read_q_peak = 0;       ///< deepest the read queue ever got
  u64 write_q_peak = 0;      ///< deepest the write queue ever got
  u64 dispatch_rounds = 0;   ///< controller scheduling rounds executed
  u64 row_hits = 0;          ///< consecutive same-row activations per bank
  // Tracing (zero when the run was untraced).
  u64 trace_records = 0;   ///< records collected into the sinks
  u64 trace_dropped = 0;   ///< records lost to ring wraparound
  u64 trace_samples = 0;   ///< metrics snapshots taken
  // Fault injection (zero when faults were off).
  u64 fault_retries = 0;    ///< verify-and-retry attempts run
  u64 failed_lines = 0;     ///< lines still failed after the retry ladder
  u64 brownout_writes = 0;  ///< writes planned under a shrunken budget
  u64 stuck_remaps = 0;     ///< services redirected off a stuck bank
  // Partition-level parallelism (zero when PALP was off).
  u64 palp_overlapped_reads = 0;  ///< reads issued against a loaded pump
  u64 palp_pump_stalls = 0;       ///< admissions deferred by the pump budget
  u64 palp_write_overlaps = 0;    ///< writes begun while another was in flight
  // DRAM front tier (zero when the tier was off).
  u64 dram_hits = 0;          ///< requests absorbed by the tier
  u64 dram_misses = 0;        ///< requests that went to the PCM path
  u64 dram_writebacks = 0;    ///< dirty lines written back to PCM
  u64 dram_clean_evicts = 0;  ///< clean victims dropped without PCM traffic
  // Content-encoder pre-stage (zero when no encoder was configured).
  u64 enc_writes = 0;       ///< line writes that went through the encoder
  u64 enc_coded_units = 0;  ///< units stored under a non-identity code
  u64 enc_tag_bits = 0;     ///< encoder metadata cells pulsed
};

/// Run one cell. Deterministic in (cfg.seed, profile, kind).
RunMetrics run_system(const SystemConfig& cfg,
                      const workload::WorkloadProfile& profile,
                      schemes::SchemeKind kind);

}  // namespace tw::harness

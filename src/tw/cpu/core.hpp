#pragma once
// Bounded-MLP core model (the gem5 O3-core substitute).
//
// A core executes instructions at `peak_ipc` between memory requests,
// drawn from its workload stream. Reads may overlap up to `mlp`
// outstanding misses (the OoO window's memory-level parallelism); once
// the window is full the core stalls until a read returns. Writes are
// posted to the controller's write queue and only stall the core on
// queue-full backpressure — exactly the couplings that turn write-service
// time into IPC/runtime effects in the paper.

#include <optional>

#include "tw/common/types.hpp"
#include "tw/mem/interface.hpp"
#include "tw/sim/simulator.hpp"
#include "tw/workload/source.hpp"

namespace tw::cpu {

/// Core microarchitecture parameters (Table II: 2 GHz ALPHA-like O3).
struct CoreConfig {
  Tick clock_period = 500;   ///< ps; 2 GHz
  double peak_ipc = 2.0;     ///< instructions/cycle when unstalled
  u32 mlp = 4;               ///< max outstanding read misses

  bool valid() const {
    return clock_period > 0 && peak_ipc > 0.0 && mlp >= 1;
  }
};

/// One simulated core running a fixed instruction budget.
class Core {
 public:
  Core(sim::Simulator& sim, u32 id, CoreConfig cfg,
       mem::MemoryInterface& mem, workload::RequestSource& gen,
       u64 instruction_budget);

  /// Begin execution (schedules the first event).
  void start();

  /// Deliver a completed read (called by the owner's demux).
  void on_read_complete();

  /// Queue space became available; retry a stalled issue.
  void on_queue_space();

  bool finished() const { return finished_; }
  Tick finish_tick() const { return finish_tick_; }
  u64 retired() const { return retired_; }
  u64 reads_issued() const { return reads_issued_; }
  u64 writes_issued() const { return writes_issued_; }
  u64 stall_events() const { return stall_events_; }

  /// Retired instructions per cycle, measured at finish (0 if running).
  double ipc() const;

  u32 id() const { return id_; }

 private:
  enum class State : u8 {
    kIdle,          ///< not started
    kExecuting,     ///< burning the gap's cycles (event scheduled)
    kIssuing,       ///< ready to issue the pending op
    kStallMlp,      ///< read window full
    kStallQueue,    ///< controller queue full
    kDone,
  };

  void execute_gap();
  void try_issue();
  void finish_if_done();

  sim::Simulator& sim_;
  u32 id_;
  CoreConfig cfg_;
  sim::Clock clock_;
  mem::MemoryInterface& ctl_;
  workload::RequestSource& gen_;

  u64 budget_;
  u64 retired_ = 0;
  u64 outstanding_reads_ = 0;
  u64 reads_issued_ = 0;
  u64 writes_issued_ = 0;
  u64 stall_events_ = 0;
  State state_ = State::kIdle;
  workload::TraceOp pending_{};
  bool has_pending_ = false;
  /// The pending write's data, synthesized at its first issue attempt.
  std::optional<pcm::LogicalLine> payload_;
  bool finished_ = false;
  Tick finish_tick_ = 0;
};

}  // namespace tw::cpu

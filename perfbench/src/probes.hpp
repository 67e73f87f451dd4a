#pragma once
// Layer probes: decorators over the simulator's three layer seams that
// time every call crossing them, without changing what crosses.
//
//   workload::RequestSource  next, make_write_data
//   mem::MemoryInterface     enqueue + the read/write/space callbacks
//   schemes::WriteScheme     plan_write, both plan_write_batch overloads,
//                            plan_retry
//
// Every timed call becomes a Span kept in memory. Spans nest: a call made
// while another probed call is open on the same thread records that call
// as its parent, so a layer's self time (duration minus the time its
// children cover) can be computed afterwards. Channel controllers of a
// sharded run plan on pool threads; each thread appends to its own
// buffer, so recording takes no lock after a thread's first span.

#include <chrono>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "tw/common/types.hpp"
#include "tw/mem/interface.hpp"
#include "tw/schemes/write_scheme.hpp"
#include "tw/workload/source.hpp"

namespace perfbench {

using tw::u32;
using tw::u64;
using tw::u8;

/// Which seam call a span times.
enum class Layer : u8 {
  kNext,       ///< RequestSource::next
  kSynth,      ///< RequestSource::make_write_data
  kEnqueue,    ///< MemoryInterface::enqueue
  kReadDone,   ///< read-completion callback (core wake-up on data return)
  kWriteDone,  ///< write-completion callback
  kSpaceWake,  ///< queue-space callback (cores retrying refused issues)
  kPlan,       ///< WriteScheme::plan_write
  kBatch,      ///< WriteScheme::plan_write_batch (either overload)
  kRetry,      ///< WriteScheme::plan_retry
};
inline constexpr std::size_t kLayerCount = 9;

/// Stable span name, e.g. "mem.enqueue".
const char* layer_name(Layer layer);

/// Span::arg bits of an enqueue span.
inline constexpr u32 kArgWrite = 1;
inline constexpr u32 kArgAccepted = 2;

inline constexpr u32 kNoParent = 0xFFFFFFFFu;

/// One timed call. Times are host nanoseconds since the log's origin.
struct Span {
  u64 start_ns = 0;
  u64 end_ns = 0;
  u64 req_id = 0;          ///< MemoryRequest::id on completions, else 0
  u32 parent = kNoParent;  ///< index of the enclosing span (same log)
  u32 arg = 0;             ///< enqueue: kArg* bits; batch: line count
  u32 thread = 0;          ///< recording thread, in first-use order
  Layer layer = Layer::kNext;

  u64 duration_ns() const { return end_ns - start_ns; }
};

/// In-memory span store shared by all probes of a run.
class SpanLog {
  struct ThreadBuf;

 public:
  SpanLog();
  ~SpanLog();
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Times one call: opens a span on construction, closes it on
  /// destruction. Scopes on one thread must nest (they do: each is a
  /// local in the decorator method it times).
  class Scope {
   public:
    Scope(SpanLog& log, Layer layer, u64 req_id = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void set_arg(u32 arg);

   private:
    const SpanLog& log_;
    ThreadBuf* buf_;
    u32 index_;
  };

  /// Every span recorded so far, threads concatenated in first-use order;
  /// parent indices refer into the returned vector. Call only while no
  /// probed call is running.
  std::vector<Span> collect() const;

  /// Drop all spans (threads stay registered) and restart the clock.
  void clear();

  u64 now_ns() const;

 private:
  ThreadBuf& local();

  const u64 id_;
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;  // guarded by mu_
};

/// Write spans as CSV (one header line, one row per span).
void write_spans_csv(std::ostream& out, const std::vector<Span>& spans);

/// Simulated per-request times seen on the completion callbacks
/// (picoseconds). Results of the model, not host cost.
struct SimSamples {
  std::vector<tw::Tick> read_latency;  ///< complete - enqueue, reads
  std::vector<tw::Tick> queue_wait;    ///< start - enqueue, all requests
  std::vector<tw::Tick> write_service; ///< complete - start, writes
};

class ProbedSource final : public tw::workload::RequestSource {
 public:
  ProbedSource(tw::workload::RequestSource& inner, SpanLog& log)
      : inner_(inner), log_(log) {}

  tw::workload::TraceOp next(u32 core) override;
  tw::pcm::LogicalLine make_write_data(tw::Addr addr,
                                       tw::mem::DataStore& store,
                                       u32 core) override;

 private:
  tw::workload::RequestSource& inner_;
  SpanLog& log_;
};

class ProbedMemory final : public tw::mem::MemoryInterface {
 public:
  /// Installs its own write callback on `inner` at once, so write
  /// completions are observed even when the owner never sets one.
  ProbedMemory(tw::mem::MemoryInterface& inner, SpanLog& log);
  ProbedMemory(const ProbedMemory&) = delete;
  ProbedMemory& operator=(const ProbedMemory&) = delete;

  bool enqueue(tw::mem::MemoryRequest req) override;
  void set_read_callback(ReadCallback cb) override;
  void set_write_callback(WriteCallback cb) override;
  void set_space_callback(SpaceCallback cb) override;
  bool idle() const override { return inner_.idle(); }
  tw::mem::DataStore& store_for(tw::Addr addr) override {
    return inner_.store_for(addr);
  }

  const SimSamples& samples() const { return samples_; }

 private:
  tw::mem::MemoryInterface& inner_;
  SpanLog& log_;
  WriteCallback on_write_;
  SimSamples samples_;
};

class ProbedScheme final : public tw::schemes::WriteScheme {
 public:
  ProbedScheme(std::unique_ptr<tw::schemes::WriteScheme> inner, SpanLog& log);

  std::string_view name() const override { return inner_->name(); }
  tw::schemes::SchemeKind kind() const override { return inner_->kind(); }
  tw::schemes::WriteSemantics semantics() const override {
    return inner_->semantics();
  }

  tw::schemes::ServicePlan plan_write(
      tw::pcm::LineBuf& line, const tw::pcm::LogicalLine& next) const override;
  tw::schemes::BatchServicePlan plan_write_batch(
      std::span<tw::pcm::LineBuf*> lines,
      std::span<const tw::pcm::LogicalLine> datas) const override;
  tw::schemes::BatchServicePlan plan_write_batch(
      std::span<tw::pcm::LineBuf*> lines,
      std::span<const tw::pcm::LogicalLine> datas,
      std::span<const u32> partitions) const override;
  tw::Tick plan_retry(const tw::BitTransitions& failed, u32 attempt,
                      double widen) const override;

  tw::pcm::LogicalLine decode_stored(
      const tw::pcm::LineBuf& line) const override {
    return inner_->decode_stored(line);
  }
  bool transforms_content() const override {
    return inner_->transforms_content();
  }
  void set_budget_scale(double scale) override {
    WriteScheme::set_budget_scale(scale);
    inner_->set_budget_scale(scale);
  }

  /// Serial write units summed over every line this scheme planned.
  double write_units() const { return write_units_; }
  u64 lines_planned() const { return lines_; }

 private:
  void note(const tw::schemes::BatchServicePlan& plan) const;

  std::unique_ptr<tw::schemes::WriteScheme> inner_;
  SpanLog& log_;
  // A scheme instance belongs to one channel, whose controller runs on one
  // thread at a time, so plain members suffice.
  mutable double write_units_ = 0.0;
  mutable u64 lines_ = 0;
};

}  // namespace perfbench

#include "probes.hpp"

#include <atomic>
#include <ostream>
#include <utility>

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kNext:
      return "workload.next";
    case Layer::kSynth:
      return "workload.synth";
    case Layer::kEnqueue:
      return "mem.enqueue";
    case Layer::kReadDone:
      return "cpu.read_wake";
    case Layer::kWriteDone:
      return "cpu.write_done";
    case Layer::kSpaceWake:
      return "cpu.space_wake";
    case Layer::kPlan:
      return "scheme.plan";
    case Layer::kBatch:
      return "scheme.batch";
    case Layer::kRetry:
      return "scheme.retry";
  }
  return "unknown";
}

// ---- SpanLog ---------------------------------------------------------------

struct SpanLog::ThreadBuf {
  std::thread::id owner;
  u32 index = 0;
  std::vector<Span> spans;
  std::vector<u32> open;  ///< indices of the spans still open, innermost last
};

namespace {

std::atomic<u64> g_next_log_id{1};

/// The buffer this thread used last, and the log it belongs to.
struct LocalCache {
  u64 log_id = 0;
  void* buf = nullptr;
};
thread_local LocalCache tl_cache;

}  // namespace

SpanLog::SpanLog()
    : id_(g_next_log_id.fetch_add(1)),
      origin_(std::chrono::steady_clock::now()) {}

SpanLog::~SpanLog() = default;

u64 SpanLog::now_ns() const {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - origin_)
                              .count());
}

SpanLog::ThreadBuf& SpanLog::local() {
  if (tl_cache.log_id == id_) return *static_cast<ThreadBuf*>(tl_cache.buf);
  const std::thread::id self = std::this_thread::get_id();
  std::lock_guard<std::mutex> lock(mu_);
  ThreadBuf* found = nullptr;
  for (const auto& b : bufs_) {
    if (b->owner == self) found = b.get();
  }
  if (found == nullptr) {
    auto buf = std::make_unique<ThreadBuf>();
    buf->owner = self;
    buf->index = static_cast<u32>(bufs_.size());
    found = buf.get();
    bufs_.push_back(std::move(buf));
  }
  tl_cache = {id_, found};
  return *found;
}

SpanLog::Scope::Scope(SpanLog& log, Layer layer, u64 req_id)
    : log_(log), buf_(&log.local()) {
  index_ = static_cast<u32>(buf_->spans.size());
  Span s;
  s.req_id = req_id;
  s.parent = buf_->open.empty() ? kNoParent : buf_->open.back();
  s.thread = buf_->index;
  s.layer = layer;
  s.start_ns = log.now_ns();
  buf_->spans.push_back(s);
  buf_->open.push_back(index_);
}

SpanLog::Scope::~Scope() {
  buf_->spans[index_].end_ns = log_.now_ns();
  buf_->open.pop_back();
}

void SpanLog::Scope::set_arg(u32 arg) { buf_->spans[index_].arg = arg; }

std::vector<Span> SpanLog::collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  for (const auto& b : bufs_) total += b->spans.size();
  std::vector<Span> out;
  out.reserve(total);
  for (const auto& b : bufs_) {
    const u32 base = static_cast<u32>(out.size());
    for (Span s : b->spans) {
      if (s.parent != kNoParent) s.parent += base;
      out.push_back(s);
    }
  }
  return out;
}

void SpanLog::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : bufs_) {
    b->spans.clear();
    b->open.clear();
  }
  origin_ = std::chrono::steady_clock::now();
}

void write_spans_csv(std::ostream& out, const std::vector<Span>& spans) {
  out << "index,thread,parent,layer,start_ns,end_ns,req_id,arg\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << i << ',' << s.thread << ',';
    if (s.parent == kNoParent) {
      out << "-1";
    } else {
      out << s.parent;
    }
    out << ',' << layer_name(s.layer) << ',' << s.start_ns << ',' << s.end_ns
        << ',' << s.req_id << ',' << s.arg << '\n';
  }
}

// ---- ProbedSource ----------------------------------------------------------

tw::workload::TraceOp ProbedSource::next(u32 core) {
  SpanLog::Scope span(log_, Layer::kNext);
  return inner_.next(core);
}

tw::pcm::LogicalLine ProbedSource::make_write_data(tw::Addr addr,
                                                   tw::mem::DataStore& store,
                                                   u32 core) {
  SpanLog::Scope span(log_, Layer::kSynth);
  return inner_.make_write_data(addr, store, core);
}

// ---- ProbedMemory ----------------------------------------------------------

ProbedMemory::ProbedMemory(tw::mem::MemoryInterface& inner, SpanLog& log)
    : inner_(inner), log_(log) {
  inner_.set_write_callback([this](const tw::mem::MemoryRequest& req) {
    SpanLog::Scope span(log_, Layer::kWriteDone, req.id);
    samples_.queue_wait.push_back(req.start_tick - req.enqueue_tick);
    samples_.write_service.push_back(req.complete_tick - req.start_tick);
    if (on_write_) on_write_(req);
  });
}

bool ProbedMemory::enqueue(tw::mem::MemoryRequest req) {
  const u32 write = req.is_write() ? kArgWrite : 0;
  SpanLog::Scope span(log_, Layer::kEnqueue);
  const bool ok = inner_.enqueue(std::move(req));
  span.set_arg(write | (ok ? kArgAccepted : 0));
  return ok;
}

void ProbedMemory::set_read_callback(ReadCallback cb) {
  inner_.set_read_callback(
      [this, cb = std::move(cb)](const tw::mem::MemoryRequest& req) {
        SpanLog::Scope span(log_, Layer::kReadDone, req.id);
        samples_.read_latency.push_back(req.complete_tick - req.enqueue_tick);
        samples_.queue_wait.push_back(req.start_tick - req.enqueue_tick);
        cb(req);
      });
}

void ProbedMemory::set_write_callback(WriteCallback cb) {
  on_write_ = std::move(cb);
}

void ProbedMemory::set_space_callback(SpaceCallback cb) {
  inner_.set_space_callback([this, cb = std::move(cb)] {
    SpanLog::Scope span(log_, Layer::kSpaceWake);
    cb();
  });
}

// ---- ProbedScheme ----------------------------------------------------------

ProbedScheme::ProbedScheme(std::unique_ptr<tw::schemes::WriteScheme> inner,
                           SpanLog& log)
    : WriteScheme(inner->config()), inner_(std::move(inner)), log_(log) {}

tw::schemes::ServicePlan ProbedScheme::plan_write(
    tw::pcm::LineBuf& line, const tw::pcm::LogicalLine& next) const {
  SpanLog::Scope span(log_, Layer::kPlan);
  tw::schemes::ServicePlan plan = inner_->plan_write(line, next);
  write_units_ += plan.write_units;
  ++lines_;
  return plan;
}

tw::schemes::BatchServicePlan ProbedScheme::plan_write_batch(
    std::span<tw::pcm::LineBuf*> lines,
    std::span<const tw::pcm::LogicalLine> datas) const {
  SpanLog::Scope span(log_, Layer::kBatch);
  span.set_arg(static_cast<u32>(lines.size()));
  tw::schemes::BatchServicePlan plan = inner_->plan_write_batch(lines, datas);
  note(plan);
  return plan;
}

tw::schemes::BatchServicePlan ProbedScheme::plan_write_batch(
    std::span<tw::pcm::LineBuf*> lines,
    std::span<const tw::pcm::LogicalLine> datas,
    std::span<const u32> partitions) const {
  SpanLog::Scope span(log_, Layer::kBatch);
  span.set_arg(static_cast<u32>(lines.size()));
  tw::schemes::BatchServicePlan plan =
      inner_->plan_write_batch(lines, datas, partitions);
  note(plan);
  return plan;
}

tw::Tick ProbedScheme::plan_retry(const tw::BitTransitions& failed,
                                  u32 attempt, double widen) const {
  SpanLog::Scope span(log_, Layer::kRetry);
  return inner_->plan_retry(failed, attempt, widen);
}

void ProbedScheme::note(const tw::schemes::BatchServicePlan& plan) const {
  for (const auto& p : plan.per_line) write_units_ += p.write_units;
  lines_ += plan.per_line.size();
}

}  // namespace perfbench

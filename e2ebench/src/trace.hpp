// In-memory span recorder for the traced run.
//
// Spans are named "<module>.<call>" and wrap the benchmark's own calls into
// each layer's public functions; nothing inside the libraries is touched.
// Every span has a start, an end, a parent span and a request id shared by
// all spans of one request, so one request's path can be followed across
// the sender and receiver threads. Each thread appends to its own buffer
// (no lock on the hot path); the buffers are merged and written out once
// the run ends. With tracing off a Span costs one null-pointer test.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace e2e {

enum class SpanName : std::uint8_t {
  kGenRequest,       // one request or frame, due time -> verified response
  kGenReload,        // one registry replacement (io.load + serve.registry_add)
  kNetWriteFrame,    // ByteStream::write_all of a pre-encoded eval frame
  kNetReadFrame,     // read + decode of one response frame (includes the wait)
  kNetSubmitEval,    // NetClient::submit_eval
  kNetCollect,       // NetClient::collect (includes the wait)
  kServeSubmit,      // EvalService::submit
  kServeWait,        // future::get on a service result
  kServeRegistryAdd, // GridRegistry::add
  kIoSave,           // io::save
  kIoLoad,           // io::load
  kCoreSample,       // CompactStorage::sample
  kCoreHierarchize,  // hierarchize
  kCoreHierarchizePoles,
  kCoreEvaluateBlocked,  // evaluate_blocked_into
  kCorePlanBuild,        // cold EvaluationPlan::shared
  kParallelEvaluate,     // omp_evaluate_many_blocked
  kParallelHierarchize,
  kParallelHierarchizePoles,
  kCount
};

const char* to_string(SpanName name);

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0: a root span
  std::uint64_t request = 0;  // 0: not part of a request
  std::int64_t start_ns = 0;  // relative to the tracer's epoch
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;
  SpanName name = SpanName::kCount;
};

class Tracer {
 public:
  class Buffer {
   public:
    /// Span ids are unique per buffer: (thread + 1) << 40 | sequence.
    std::uint64_t next_id() { return (thread_ + 1) << 40 | ++seq_; }
    void record(SpanName name, std::uint64_t id, std::uint64_t parent,
                std::uint64_t request, Clock::time_point start,
                Clock::time_point end);

   private:
    friend class Tracer;
    Buffer(const Tracer& owner, std::uint64_t thread)
        : owner_(owner), thread_(thread) {}
    const Tracer& owner_;
    std::uint64_t thread_;
    std::uint64_t seq_ = 0;
    std::vector<SpanRecord> spans_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// A buffer for the calling thread, or nullptr when tracing is off. The
  /// buffer lives as long as the tracer; one thread uses it at a time.
  Buffer* open_buffer();

  /// A tracer starts paused: the timed calls of a run's untraced half
  /// record nothing (set-up spans, recorded into a buffer directly, are
  /// kept). resume() starts the traced half.
  void resume() { paused_ = false; }
  bool active() const { return enabled_ && !paused_; }

  std::vector<SpanRecord> spans() const;
  /// One CSV row per span: name,id,parent,request,thread,start_ns,end_ns.
  bool write_csv(const std::string& path) const;

 private:
  const bool enabled_;
  std::atomic<bool> paused_{true};
  const Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::deque<Buffer> buffers_;
};

/// Scoped span: records [construction, destruction) into `buf` when the
/// tracer is active. `buf == nullptr` (tracing off) records nothing.
class Span {
 public:
  Span(Tracer::Buffer* buf, SpanName name, std::uint64_t request = 0,
       std::uint64_t parent = 0)
      : buf_(buf), name_(name), request_(request), parent_(parent) {
    if (buf_) {
      id_ = buf_->next_id();
      start_ = Clock::now();
    }
  }
  ~Span() {
    if (buf_) buf_->record(name_, id_, parent_, request_, start_, Clock::now());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  Tracer::Buffer* buf_;
  SpanName name_;
  std::uint64_t request_;
  std::uint64_t parent_;
  std::uint64_t id_ = 0;
  Clock::time_point start_;
};

/// Root span of request `request`: a fixed id, so spans recorded on other
/// threads before the root closes can already name it as their parent.
inline std::uint64_t root_span_id(std::uint64_t request) {
  return (std::uint64_t{1} << 63) | request;
}

/// The buffer to record into right now: nullptr unless the tracer is
/// active, so untraced phases skip even the clock reads.
inline Tracer::Buffer* live(Tracer& tracer, Tracer::Buffer* buf) {
  return tracer.active() ? buf : nullptr;
}

}  // namespace e2e

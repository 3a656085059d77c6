#include "trace.hpp"

#include <cstdio>

namespace e2e {

const char* to_string(SpanName name) {
  switch (name) {
    case SpanName::kGenRequest: return "gen.request";
    case SpanName::kGenReload: return "gen.reload";
    case SpanName::kNetWriteFrame: return "net.write_frame";
    case SpanName::kNetReadFrame: return "net.read_frame";
    case SpanName::kNetSubmitEval: return "net.submit_eval";
    case SpanName::kNetCollect: return "net.collect";
    case SpanName::kServeSubmit: return "serve.submit";
    case SpanName::kServeWait: return "serve.wait";
    case SpanName::kServeRegistryAdd: return "serve.registry_add";
    case SpanName::kIoSave: return "io.save";
    case SpanName::kIoLoad: return "io.load";
    case SpanName::kCoreSample: return "core.sample";
    case SpanName::kCoreHierarchize: return "core.hierarchize";
    case SpanName::kCoreHierarchizePoles: return "core.hierarchize_poles";
    case SpanName::kCoreEvaluateBlocked: return "core.evaluate_blocked_into";
    case SpanName::kCorePlanBuild: return "core.plan_build";
    case SpanName::kParallelEvaluate: return "parallel.omp_evaluate_many_blocked";
    case SpanName::kParallelHierarchize: return "parallel.omp_hierarchize";
    case SpanName::kParallelHierarchizePoles:
      return "parallel.omp_hierarchize_poles";
    case SpanName::kCount: break;
  }
  return "unknown";
}

void Tracer::Buffer::record(SpanName name, std::uint64_t id,
                            std::uint64_t parent, std::uint64_t request,
                            Clock::time_point start, Clock::time_point end) {
  SpanRecord r;
  r.id = id;
  r.parent = parent;
  r.request = request;
  r.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   start - owner_.epoch_)
                   .count();
  r.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 end - owner_.epoch_)
                 .count();
  r.thread = static_cast<std::uint32_t>(thread_);
  r.name = name;
  spans_.push_back(r);
}

Tracer::Buffer* Tracer::open_buffer() {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mutex_);
  buffers_.push_back(Buffer(*this, buffers_.size()));
  return &buffers_.back();
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpanRecord> all;
  for (const Buffer& b : buffers_)
    all.insert(all.end(), b.spans_.begin(), b.spans_.end());
  return all;
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "name,id,parent,request,thread,start_ns,end_ns\n");
  for (const SpanRecord& s : spans())
    std::fprintf(f, "%s,%llu,%llu,%llu,%u,%lld,%lld\n", to_string(s.name),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.thread,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  return std::fclose(f) == 0;
}

}  // namespace e2e

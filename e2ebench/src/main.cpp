// e2ebench: one command, three workloads, every metric by name with its
// unit, every output checked. See README.md for the metric -> layer ->
// workload map.
//
//   e2ebench --workload point_stream|bulk_frames|offline_surrogate
//            --seed N --seconds S --trace 0|1
//            [--tiny] [--corrupt-reference] [--trace-dir DIR]
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": int, "failed": int,
//    "metrics": {"<name>": {"value": number, "unit": "<unit>"}, ...}}
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// Exit code 0 when every output was correct, 1 when a check failed, 2 on
// usage or runtime errors (no JSON line then).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <set>
#include <sstream>
#include <string>

#include "common.hpp"
#include "csg/bench/json_writer.hpp"
#include "ladder.hpp"
#include "trace.hpp"

namespace e2e {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"throughput_pts_s", "pts/s"},
    {"latency_p50_us", "us"},  {"latency_p99_us", "us"},
    {"on_time_share", "share"}, {"ok_share", "share"},
    {"build_s", "s"},          {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"core.lane_fill", "share"},
    {"core.soa_blocks", "count"},
    {"core.eval_ns_per_pt", "ns"},
    {"core.hierarchize_s", "s"},
    {"core.hierarchize_poles_s", "s"},
    {"core.sample_s", "s"},
    {"core.plan_build_ms", "ms"},
    {"core.self_us_p50", "us"},
    {"parallel.eval_ns_per_pt", "ns"},
    {"parallel.omp_hierarchize_s", "s"},
    {"parallel.omp_hierarchize_poles_s", "s"},
    {"parallel.self_us_p50", "us"},
    {"io.save_s", "s"},
    {"io.load_s", "s"},
    {"io.bytes", "bytes"},
    {"serve.request_us_p50", "us"},
    {"serve.request_us_p99", "us"},
    {"serve.submit_us", "us"},
    {"serve.mean_batch_pts", "pts"},
    {"serve.batches", "count"},
    {"serve.max_queue_depth", "count"},
    {"serve.rejected", "count"},
    {"serve.timed_out", "count"},
    {"serve.registry_add_us", "us"},
    {"serve.plan_cache_hits", "count"},
    {"serve.plan_cache_misses", "count"},
    {"serve.self_us_p50", "us"},
    {"net.submit_us", "us"},
    {"net.collect_wait_us", "us"},
    {"net.overhead_us_p50", "us"},
    {"net.bytes_per_pt", "bytes"},
    {"net.frames", "count"},
    {"net.pipelined_frames", "count"},
    {"net.inflight_peak", "count"},
    {"net.frames_rejected", "count"},
    {"gen.lag_p99_us", "us"},
    {"trace.overhead_share", "share"},
};

int usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload point_stream|bulk_frames|"
               "offline_surrogate --seed N --seconds S --trace 0|1 [--tiny] "
               "[--corrupt-reference] [--trace-dir DIR]\n");
  return 2;
}

/// Put the workload's metrics in the canonical order with the canonical
/// units. A per-layer metric of a layer the workload does not cross (serve
/// and net on offline_surrogate, the open-loop generator on the closed
/// loops) is reported as 0.
template <std::size_t N>
std::vector<Metric> canonical(const MetricSpec (&spec)[N],
                              const std::vector<Metric>& got, bool fill_zero,
                              Outcome& out) {
  std::vector<Metric> ordered;
  std::set<std::string> known;
  for (const MetricSpec& m : spec) {
    known.insert(m.name);
    const auto it = std::find_if(got.begin(), got.end(),
                                 [&](const Metric& g) { return g.name == m.name; });
    if (it != got.end()) {
      out.require(it->unit == m.unit, std::string("unit mismatch on ") + m.name);
      out.require(std::isfinite(it->value),
                  std::string("non-finite value for ") + m.name);
      ordered.push_back({m.name, it->value, m.unit});
    } else if (fill_zero) {
      ordered.push_back({m.name, 0, m.unit});
    } else {
      out.fail(std::string("metric not measured: ") + m.name);
    }
  }
  for (const Metric& g : got)
    out.require(known.count(g.name) == 1, "unlisted metric " + g.name);
  return ordered;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  Options opts;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      opts.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds" && has_value) {
      opts.seconds = std::atof(argv[++i]);
      have_seconds = true;
    } else if (a == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return usage();
      opts.trace = v == "1";
      have_trace = true;
    } else if (a == "--trace-dir" && has_value) {
      opts.trace_dir = argv[++i];
    } else if (a == "--tiny") {
      opts.tiny = true;
    } else if (a == "--corrupt-reference") {
      opts.corrupt_reference = true;
    } else {
      return usage();
    }
  }
  if (!have_seed || !have_seconds || !have_trace || !(opts.seconds > 0))
    return usage();

  Tracer tracer(opts.trace);
  Outcome out;
  try {
    if (opts.workload == "point_stream")
      out = run_point_stream(opts, tracer);
    else if (opts.workload == "bulk_frames")
      out = run_bulk_frames(opts, tracer);
    else if (opts.workload == "offline_surrogate")
      out = run_offline_surrogate(opts, tracer);
    else
      return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 2;
  }

  const std::vector<Metric> metrics =
      opts.trace ? canonical(kPerLayer, out.per_layer, true, out)
                 : canonical(kEndToEnd, out.end_to_end, false, out);
  if (opts.trace) {
    const std::string path = opts.trace_dir + "/spans_" + opts.workload + ".csv";
    if (!tracer.write_csv(path))
      std::fprintf(stderr, "e2ebench: could not write spans to %s\n", path.c_str());
  }
  out.require(out.attempted >= 1, "no work was attempted");
  out.require(out.failed == 0, std::to_string(out.failed) + " of " +
                                   std::to_string(out.attempted) +
                                   " points failed or were wrong");
  for (const std::string& p : out.problems)
    std::fprintf(stderr, "e2ebench: FAILED: %s\n", p.c_str());

  std::ostringstream line;
  csg::bench::JsonWriter w(line);
  w.begin_object();
  w.kv("correct", out.problems.empty());
  w.kv("attempted", static_cast<std::int64_t>(out.attempted));
  w.kv("failed", static_cast<std::int64_t>(out.failed));
  w.key("metrics");
  w.begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name);
    w.begin_object();
    w.kv("value", m.value);
    w.kv("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::cout << line.str() << std::endl;
  return out.problems.empty() ? 0 : 1;
}

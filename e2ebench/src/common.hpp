// Shared pieces of the e2ebench workloads: run options, the metric record
// a run prints, latency statistics, grid construction and the exact
// value check every output goes through.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "csg/core/compact_storage.hpp"
#include "csg/core/types.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline Clock::time_point after(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

class Tracer;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Small shapes and short phases: the self-test mode.
  bool tiny = false;
  /// Perturb one reference value so the correctness gate must trip.
  bool corrupt_reference = false;
  /// Directory the traced run writes its span file into.
  std::string trace_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports: the two metric families plus the correctness
/// ledger. `attempted`/`failed` count points of the timed phase.
struct Outcome {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Reasons the run is not correct (value mismatch, io mismatch, counters
  /// that disagree with the generator). Empty means correct.
  std::vector<std::string> problems;

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  void fail(std::string why) { problems.push_back(std::move(why)); }
  void require(bool ok, const std::string& why) {
    if (!ok) fail(why);
  }
};

/// Nearest-rank percentile, q in [0, 1], for the quantiles other than the
/// median (csg::bench::median_of). Empty input gives 0.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const auto k = std::min(
      v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

/// Mean of the middle half of the samples (the interquartile mean): as
/// robust to a stalled repetition as the median, and steadier when the
/// samples spread over two speed levels of a shared host's cores.
inline double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() / 4, hi = v.size() - v.size() / 4;
  double sum = 0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

/// Peak resident set (VmHWM) of this process, in MB.
double peak_rss_mb();

inline int nproc() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

/// splitmix64: derives independent stream seeds from the run seed.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// The served value must equal evaluate_span's bit for bit. The one
/// allowance is the sign of an exact zero, which the repository's ULP
/// comparator also identifies.
inline bool same_value(csg::real_t got, csg::real_t want) {
  return std::memcmp(&got, &want, sizeof got) == 0 ||
         (got == 0 && want == 0);
}

/// Byte-for-byte comparison of a loaded grid with the one that was saved.
inline bool same_grid(const csg::CompactStorage& a,
                      const csg::CompactStorage& b) {
  return a.grid().dim() == b.grid().dim() &&
         a.grid().level() == b.grid().level() &&
         a.values().size() == b.values().size() &&
         std::memcmp(a.values().data(), b.values().data(),
                     a.values().size() * sizeof(csg::real_t)) == 0;
}

/// Sample `scale` x simulation_field on the (d, n) grid.
void sample_field(csg::CompactStorage& storage, csg::real_t scale);

/// Reference values evaluate_span(plan, coeffs, points[i]) for every point
/// of a pool, on all cores. Pool point i belongs to grid i % grids.size().
std::vector<csg::real_t> reference_values(
    const std::vector<const csg::CompactStorage*>& grids,
    const std::vector<csg::CoordVector>& points);

/// Points completed within the timed phase, per second of the phase.
double completed_rate(const std::vector<double>& completion_s,
                      const std::vector<double>& points, double phase_seconds);

/// Latency figures of a timed phase. The phase is cut into windows of
/// `window_s` seconds (the last one takes the remainder), each window gets
/// its own p50 and p99, and the figure reported is the median over the
/// windows: vCPU steal on a shared host, which inflates the tails of the
/// few windows it hits several-fold, does not move it, while a cost that
/// most windows pay does. point_stream's windows are a whole multiple of
/// its reload period, so every window holds the same number of registry
/// reloads and their cost is in every window's tail. The on-time share is
/// over the whole phase: units verified within `limit_us` / units
/// attempted. stderr shows every window's p50/p99.
struct LatencyFigures {
  double p50_us = 0, p99_us = 0;
  double on_time_share = 0;
};

/// Per-unit latencies (failures as +inf) grouped by the unit's start time.
LatencyFigures latency_figures(const std::vector<double>& start_s,
                               const std::vector<double>& latency_us,
                               double phase_seconds, double window_s,
                               double limit_us);

Outcome run_point_stream(const Options& opts, Tracer& tracer);
Outcome run_bulk_frames(const Options& opts, Tracer& tracer);
Outcome run_offline_surrogate(const Options& opts, Tracer& tracer);

}  // namespace e2e

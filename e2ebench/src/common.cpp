#include "common.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "csg/bench/stats.hpp"
#include "csg/core/evaluate.hpp"
#include "csg/core/evaluation_plan.hpp"
#include "csg/workloads/functions.hpp"

namespace e2e {

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
  return 0;
}

void sample_field(csg::CompactStorage& storage, csg::real_t scale) {
  const auto field = csg::workloads::simulation_field(storage.dim());
  storage.sample(
      [&](const csg::CoordVector& x) { return scale * field.f(x); });
}

std::vector<csg::real_t> reference_values(
    const std::vector<const csg::CompactStorage*>& grids,
    const std::vector<csg::CoordVector>& points) {
  std::vector<csg::real_t> ref(points.size());
  std::vector<std::thread> workers;
  const auto threads = static_cast<std::size_t>(nproc());
  for (std::size_t t = 0; t < threads; ++t)
    workers.emplace_back([&, t] {
      for (std::size_t i = t; i < points.size(); i += threads) {
        const csg::CompactStorage& g = *grids[i % grids.size()];
        const auto plan = csg::EvaluationPlan::shared(g.grid());
        ref[i] = csg::evaluate_span(*plan, g.values(), points[i]);
      }
    });
  for (std::thread& w : workers) w.join();
  return ref;
}

double completed_rate(const std::vector<double>& completion_s,
                      const std::vector<double>& points, double phase_seconds) {
  double done = 0;
  for (std::size_t i = 0; i < completion_s.size(); ++i)
    if (completion_s[i] <= phase_seconds) done += points[i];
  return done / phase_seconds;
}

LatencyFigures latency_figures(const std::vector<double>& start_s,
                               const std::vector<double>& latency_us,
                               double phase_seconds, double window_s,
                               double limit_us) {
  const auto windows = static_cast<std::size_t>(
      std::max(1.0, std::floor(phase_seconds / window_s)));
  std::vector<std::vector<double>> by_window(windows);
  std::size_t on_time = 0;
  for (std::size_t i = 0; i < start_s.size(); ++i) {
    const auto w = static_cast<std::size_t>(std::max(0.0, start_s[i] / window_s));
    by_window[std::min(w, windows - 1)].push_back(latency_us[i]);
    on_time += latency_us[i] <= limit_us;
  }
  std::vector<double> p50, p99;
  for (const auto& v : by_window) {
    if (v.empty()) continue;
    p50.push_back(csg::bench::median_of(v));
    p99.push_back(percentile(v, 0.99));
  }
  std::fprintf(stderr, "e2ebench: %zu windows of %.2f s, per-window p50/p99 us:",
               p50.size(), window_s);
  for (std::size_t w = 0; w < p50.size(); ++w)
    std::fprintf(stderr, " %.0f/%.0f", p50[w], p99[w]);
  std::fprintf(stderr, "\n");
  return {csg::bench::median_of(p50), csg::bench::median_of(p99),
          static_cast<double>(on_time) /
              static_cast<double>(std::max<std::size_t>(start_s.size(), 1))};
}

}  // namespace e2e

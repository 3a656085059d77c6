#include "ladder.hpp"

#include "csg/bench/stats.hpp"
#include "csg/core/evaluate.hpp"
#include "csg/core/evaluation_plan.hpp"
#include "csg/core/hierarchize.hpp"
#include "csg/parallel/omp_algorithms.hpp"

namespace e2e {

GridPools::GridPools(std::vector<const csg::CompactStorage*> grids_in,
                     const std::vector<csg::CoordVector>& pool,
                     const std::vector<csg::real_t>& pool_refs)
    : grids(std::move(grids_in)), points(grids.size()), refs(grids.size()) {
  for (const csg::CompactStorage* g : grids)
    plans.push_back(csg::EvaluationPlan::shared(g->grid()));
  for (std::size_t i = 0; i < pool.size(); ++i) {
    points[i % grids.size()].push_back(pool[i]);
    refs[i % grids.size()].push_back(pool_refs[i]);
  }
}

RungResult run_rung(RungKind kind, const GridPools& pools, std::size_t batch,
                    int threads, double seconds, Tracer& tracer,
                    Tracer::Buffer* buf) {
  constexpr std::size_t kBlock = 64;  // the service's and CLI's block size
  RungResult r;
  std::vector<double> call_us;
  std::vector<csg::real_t> out;
  double busy_s = 0;
  std::size_t g = 0, pos = 0;
  const auto t_end = after(Clock::now(), seconds);
  while (Clock::now() < t_end || call_us.empty()) {
    const auto& pts = pools.points[g];
    const auto& refs = pools.refs[g];
    const csg::CompactStorage& grid = *pools.grids[g];
    if (pos + batch > pts.size()) pos = 0;
    const std::size_t b = std::min(batch, pts.size());
    const std::span<const csg::CoordVector> slice(pts.data() + pos, b);
    const csg::EvaluationPlan& plan = *pools.plans[g];
    const auto t0 = Clock::now();
    if (kind == RungKind::kCore) {
      Span s(live(tracer, buf), SpanName::kCoreEvaluateBlocked);
      out.assign(b, 0);
      csg::evaluate_blocked_into(plan, grid.values(), slice, kBlock, out);
    } else {
      Span s(live(tracer, buf), SpanName::kParallelEvaluate);
      out = csg::parallel::omp_evaluate_many_blocked(plan, grid.values(),
                                                     slice, kBlock, threads);
    }
    const auto t1 = Clock::now();
    busy_s += std::chrono::duration<double>(t1 - t0).count();
    call_us.push_back(us_between(t0, t1));
    for (std::size_t k = 0; k < b; ++k)
      if (!same_value(out[k], refs[pos + k])) ++r.mismatches;
    r.points += b;
    pos += b;
    g = (g + 1) % pools.grids.size();
  }
  r.ns_per_pt = busy_s * 1e9 / static_cast<double>(r.points);
  r.call_us_p50 = csg::bench::median_of(call_us);
  return r;
}

namespace {

std::uint64_t count_mismatches(const csg::CompactStorage& got,
                               const csg::CompactStorage& want) {
  std::uint64_t bad = 0;
  for (std::size_t j = 0; j < got.values().size(); ++j)
    if (!same_value(got.values()[j], want.values()[j])) ++bad;
  return bad;
}

}  // namespace

HierarchizeLadder run_hierarchize_ladder(
    const std::vector<const csg::CompactStorage*>& nodal,
    const std::vector<const csg::CompactStorage*>& hierarchized, int threads,
    Tracer::Buffer* buf) {
  HierarchizeLadder h;
  const auto timed = [&](SpanName name, double& acc, auto&& transform) {
    for (std::size_t g = 0; g < nodal.size(); ++g) {
      csg::CompactStorage work = *nodal[g];  // copy outside the timed span
      const auto t0 = Clock::now();
      {
        Span s(buf, name);
        transform(work);
      }
      acc += seconds_since(t0);
      h.mismatches += count_mismatches(work, *hierarchized[g]);
    }
  };
  timed(SpanName::kCoreHierarchizePoles, h.poles_s,
        [](csg::CompactStorage& s) { csg::hierarchize_poles(s); });
  timed(SpanName::kParallelHierarchize, h.omp_s, [&](csg::CompactStorage& s) {
    csg::parallel::omp_hierarchize(s, threads);
  });
  timed(SpanName::kParallelHierarchizePoles, h.omp_poles_s,
        [&](csg::CompactStorage& s) {
          csg::parallel::omp_hierarchize_poles(s, threads);
        });
  return h;
}

double cold_plan_build_ms(const csg::RegularSparseGrid& grid,
                          Tracer::Buffer* buf) {
  csg::EvaluationPlan::shared_cache_clear();
  const auto t0 = Clock::now();
  {
    Span s(buf, SpanName::kCorePlanBuild);
    (void)csg::EvaluationPlan::shared(grid);
  }
  return seconds_since(t0) * 1e3;
}

}  // namespace e2e

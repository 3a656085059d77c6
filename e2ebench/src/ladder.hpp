// The layer ladder: each workload replayed one layer down at a time, so
// every layer gets a self time. The rungs below serve are shared by all
// three workloads: the kernel alone (core::evaluate_blocked_into on one
// thread), the OpenMP driver (parallel::omp_evaluate_many_blocked), the
// hierarchization variants, and a cold plan build.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "csg/core/evaluation_plan.hpp"
#include "trace.hpp"

namespace e2e {

/// A point pool split by grid (pool point i belongs to grid i % G), with
/// the reference value of every point.
struct GridPools {
  std::vector<const csg::CompactStorage*> grids;
  std::vector<std::shared_ptr<const csg::EvaluationPlan>> plans;
  std::vector<std::vector<csg::CoordVector>> points;
  std::vector<std::vector<csg::real_t>> refs;

  GridPools(std::vector<const csg::CompactStorage*> grids_in,
            const std::vector<csg::CoordVector>& pool,
            const std::vector<csg::real_t>& pool_refs);
};

enum class RungKind { kCore, kParallel };

struct RungResult {
  double ns_per_pt = 0;    ///< wall time per point evaluated
  double call_us_p50 = 0;  ///< median wall time of one batch call
  std::uint64_t points = 0;
  std::uint64_t mismatches = 0;  ///< values differing from evaluate_span
};

/// Evaluate consecutive single-grid batches of `batch` points for
/// `seconds`: kCore runs evaluate_blocked_into on this thread, kParallel
/// runs omp_evaluate_many_blocked on `threads` threads. Every value is
/// checked against the reference.
RungResult run_rung(RungKind kind, const GridPools& pools, std::size_t batch,
                    int threads, double seconds, Tracer& tracer,
                    Tracer::Buffer* buf);

struct HierarchizeLadder {
  double poles_s = 0;      ///< hierarchize_poles, summed over the grids
  double omp_s = 0;        ///< omp_hierarchize at `threads`
  double omp_poles_s = 0;  ///< omp_hierarchize_poles at `threads`
  std::uint64_t mismatches = 0;  ///< coefficients differing from hierarchize()
};

/// Run the three other hierarchization paths on copies of the nodal values
/// and compare each result with the hierarchize() output it must match.
HierarchizeLadder run_hierarchize_ladder(
    const std::vector<const csg::CompactStorage*>& nodal,
    const std::vector<const csg::CompactStorage*>& hierarchized, int threads,
    Tracer::Buffer* buf);

/// Milliseconds for a cold EvaluationPlan::shared on `grid` (the shared
/// plan cache is cleared first; pinned plans stay valid).
double cold_plan_build_ms(const csg::RegularSparseGrid& grid,
                          Tracer::Buffer* buf);

}  // namespace e2e

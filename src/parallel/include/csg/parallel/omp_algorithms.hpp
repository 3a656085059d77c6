// OpenMP parallelization of the sparse grid operations (paper Sec. 6.2).
//
// The compact structure uses the same static decomposition as the GPU
// implementation (Sec. 5.3): within one level group the subspaces are
// distributed statically over threads, and groups are processed in
// descending |l|_1 order with a barrier in between — here the implicit
// barrier at the end of each `omp parallel for`, on the GPU one kernel
// launch per group. The hierarchization kernels, their work lists and the
// sweep order all live in core (csg/core/hierarchize.hpp); this layer only
// partitions those lists over threads, so its results are bit-identical
// to the sequential entry points for any thread count. Evaluation is
// embarrassingly parallel over the set of evaluation points.
//
// The baseline storages are parallelized the way the paper parallelized the
// original recursive algorithms: OpenMP tasks over the 1d hierarchization
// poles (Sec. 6.2 "the tasking concept was applied"). Poles are disjoint
// point sets, and the storages' structure is frozen after sampling (all
// keys pre-inserted), so concurrent value writes touch distinct nodes.
//
// This layer deliberately carries no thread-safety capability annotations
// (csg/core/thread_annotations.hpp): it holds no mutexes. Its correctness
// argument is structural — disjoint index ranges plus OpenMP's implicit
// barriers — which Clang's capability analysis cannot model. The runtime
// TSan lane (CSG_SANITIZE=thread, with the GOMP bridge) is the checker for
// this layer; the annotation lane covers the lock-based serving stack.
#pragma once

#include <omp.h>

#include <span>
#include <vector>

#include "csg/baselines/generic_algorithms.hpp"
#include "csg/core/compact_storage.hpp"
#include "csg/core/evaluate.hpp"
#include "csg/core/hierarchize.hpp"

namespace csg::parallel {

/// Parallel iterative hierarchization on the compact structure: core's
/// transform_subspace over each level group's work list, split statically.
/// Barrier per level group; subspaces within a group are independent
/// because a point's dimension-t parents always live in a strictly lower
/// group.
void omp_hierarchize(CompactStorage& storage, int num_threads);

/// Parallel inverse transform (ascending groups, same decomposition).
void omp_dehierarchize(CompactStorage& storage, int num_threads);

/// Parallel pole-based hierarchization: core's transform_pole_root over
/// pole_roots(t), split statically. Within one dimension the pole families
/// are fully independent (each carries its own Alg. 1 recursion), so the
/// only barrier is between dimensions — even less synchronization than the
/// per-level-group scheme, on top of the pole transform's gp2idx-free
/// inner loop (see hierarchize_poles).
void omp_hierarchize_poles(CompactStorage& storage, int num_threads);

/// Parallel evaluation at many points on the compact structure.
std::vector<real_t> omp_evaluate_many(const CompactStorage& storage,
                                      std::span<const CoordVector> points,
                                      int num_threads);

/// Parallel cache-blocked evaluation (Sec. 4.3 blocking + Fig. 11b style
/// threading): the point set is cut into blocks, threads take whole blocks
/// with a static schedule, and every thread accumulates into the disjoint
/// `out` range of its own blocks — no reduction, no barrier until the
/// implicit one at region end. The EvaluationPlan for (d, n) is fetched
/// once and shared read-only by all threads. Each block runs through the
/// SoA kernel (evaluate_block_soa): every OpenMP pool thread transposes
/// into its own thread-local PointBlock arena, which persists across
/// parallel regions, so steady-state batches allocate nothing.
std::vector<real_t> omp_evaluate_many_blocked(
    const CompactStorage& storage, std::span<const CoordVector> points,
    std::size_t block_size, int num_threads);

/// Plan-held variant of the parallel blocked evaluation: callers that pin
/// their plan (the serve::GridRegistry, anything holding a shared plan
/// across batches) bypass the shared plan cache entirely, so a bounded
/// cache evicting their shape cannot force a rebuild per batch.
std::vector<real_t> omp_evaluate_many_blocked(
    const EvaluationPlan& plan, std::span<const real_t> coeffs,
    std::span<const CoordVector> points, std::size_t block_size,
    int num_threads);

/// Parallel recursive hierarchization over any storage: one task per pole,
/// barrier between dimensions. Requires the storage to be fully populated
/// (sampled) so that no set() changes container structure.
template <baselines::GridStorage S>
void omp_hierarchize_recursive(S& storage, int num_threads) {
  const RegularSparseGrid& grid = storage.grid();
  for (dim_t t = 0; t < grid.dim(); ++t) {
    // Collect the poles of dimension t first, then process them as tasks —
    // the dynamic decomposition the paper attributes part of the baselines'
    // scalability loss to.
    struct Pole {
      LevelVector l;
      IndexVector i;
      level_t budget;
    };
    std::vector<Pole> poles;
    baselines::detail::for_each_pole(
        grid, t, [&](LevelVector& l, IndexVector& i, level_t budget) {
          poles.push_back({l, i, budget});
        });
#pragma omp parallel num_threads(num_threads)
#pragma omp single
    {
      for (std::size_t p = 0; p < poles.size(); ++p) {
#pragma omp task firstprivate(p)
        {
          Pole pole = poles[p];
          baselines::detail::hierarchize1d_rec(storage, pole.l, pole.i, t, 0,
                                               1, pole.budget, real_t{0},
                                               real_t{0});
        }
      }
    }
  }
}

/// Parallel evaluation over any storage (get-only, embarrassingly parallel).
template <baselines::GridStorage S>
std::vector<real_t> omp_evaluate_many_recursive(
    const S& storage, std::span<const CoordVector> points, int num_threads) {
  std::vector<real_t> out(points.size());
#pragma omp parallel for schedule(static) num_threads(num_threads)
  for (std::size_t p = 0; p < points.size(); ++p)
    out[p] = baselines::evaluate_recursive(storage, points[p]);
  return out;
}

}  // namespace csg::parallel

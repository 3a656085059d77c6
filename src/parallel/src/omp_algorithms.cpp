#include "csg/parallel/omp_algorithms.hpp"

#include <algorithm>

namespace csg::parallel {

#if defined(CSG_TSAN_GOMP_BRIDGE)
namespace detail {
void tsan_gomp_bridge_anchor();
}
// Forces tsan_gomp_bridge.o out of the archive so its GOMP_* interposers
// are bound instead of libgomp's uninstrumented ones (see that TU).
[[maybe_unused]] static void (*const force_tsan_bridge)() =
    &detail::tsan_gomp_bridge_anchor;
#endif

namespace {

/// omp_hierarchize / omp_dehierarchize: each level group's work list split
/// statically over threads. The implicit barrier at the end of each
/// parallel region is the per-group barrier of Sec. 5.3.
void omp_transform_groups(CompactStorage& storage, Direction dir,
                          int num_threads) {
  CSG_EXPECTS(num_threads >= 1);
  const RegularSparseGrid& grid = storage.grid();
  for_each_sweep_group(grid, dir, [&](dim_t t, level_t j) {
    const auto subspaces =
        static_cast<std::int64_t>(grid.subspaces_in_group(j));
#pragma omp parallel for schedule(static) num_threads(num_threads)
    for (std::int64_t k = 0; k < subspaces; ++k)
      transform_subspace(storage,
                         group_subspace(grid, j, static_cast<std::uint64_t>(k)),
                         t, dir);
  });
}

}  // namespace

void omp_hierarchize(CompactStorage& storage, int num_threads) {
  omp_transform_groups(storage, Direction::kForward, num_threads);
}

void omp_dehierarchize(CompactStorage& storage, int num_threads) {
  omp_transform_groups(storage, Direction::kInverse, num_threads);
}

void omp_hierarchize_poles(CompactStorage& storage, int num_threads) {
  CSG_EXPECTS(num_threads >= 1);
  const RegularSparseGrid& grid = storage.grid();
  for (dim_t t = 0; t < grid.dim(); ++t) {
    // Pole roots split statically over threads; the implicit barrier at
    // region end separates the dimensions.
    const std::vector<LevelVector> roots = pole_roots(grid, t);
    const auto count = static_cast<std::int64_t>(roots.size());
#pragma omp parallel for schedule(static) num_threads(num_threads)
    for (std::int64_t r = 0; r < count; ++r)
      transform_pole_root(storage, roots[static_cast<std::size_t>(r)], t,
                          Direction::kForward);
  }
}

std::vector<real_t> omp_evaluate_many(const CompactStorage& storage,
                                      std::span<const CoordVector> points,
                                      int num_threads) {
  CSG_EXPECTS(num_threads >= 1);
  // Fetch the plan once outside the region; per-point evaluate() would
  // take the plan-cache lock from every thread on every call.
  const auto plan = EvaluationPlan::shared(storage.grid());
  const std::span<const real_t> coeffs(storage.data(),
                                       storage.values().size());
  std::vector<real_t> out(points.size());
#pragma omp parallel for schedule(static) num_threads(num_threads)
  for (std::size_t p = 0; p < points.size(); ++p)
    out[p] = evaluate_span(*plan, coeffs, points[p]);
  return out;
}

std::vector<real_t> omp_evaluate_many_blocked(
    const CompactStorage& storage, std::span<const CoordVector> points,
    std::size_t block_size, int num_threads) {
  const auto plan = EvaluationPlan::shared(storage.grid());
  const std::span<const real_t> coeffs(storage.data(),
                                       storage.values().size());
  return omp_evaluate_many_blocked(*plan, coeffs, points, block_size,
                                   num_threads);
}

std::vector<real_t> omp_evaluate_many_blocked(
    const EvaluationPlan& plan, std::span<const real_t> coeffs,
    std::span<const CoordVector> points, std::size_t block_size,
    int num_threads) {
  CSG_EXPECTS(num_threads >= 1);
  CSG_EXPECTS(block_size >= 1);
  std::vector<real_t> out(points.size(), 0);
  // Rounded-up division that cannot wrap for any block_size.
  const auto num_blocks = static_cast<std::int64_t>(
      points.size() / block_size + (points.size() % block_size != 0));
  // One iteration per point block; blocks write disjoint out ranges, so
  // the reduction is barrier-free and results are bit-identical for any
  // thread count (each point always sums subspaces in enumeration order).
  // evaluate_blocked_into transposes each block into the calling thread's
  // persistent PointBlock arena and runs the SoA kernel on it; OpenMP keeps
  // pool threads (and their thread-locals) alive across regions, so a
  // steady batch stream performs no per-batch point-layout allocation.
#pragma omp parallel for schedule(static) num_threads(num_threads)
  for (std::int64_t b = 0; b < num_blocks; ++b) {
    const std::size_t b0 = static_cast<std::size_t>(b) * block_size;
    const std::size_t b1 = std::min(b0 + block_size, points.size());
    evaluate_blocked_into(plan, coeffs, points.subspan(b0, b1 - b0),
                          block_size, std::span<real_t>(out).subspan(b0, b1 - b0));
  }
  return out;
}

}  // namespace csg::parallel

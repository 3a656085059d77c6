// Iterative hierarchization / dehierarchization on CompactStorage
// (paper Alg. 6 and its inverse).
//
// Hierarchization converts nodal values (samples of f at grid points) into
// hierarchical coefficients, one dimension at a time. Within a dimension the
// level groups are processed in descending |l|_1 order so that a point's
// update reads its dimension-t parents while they still hold their previous
// (pre-update-in-t) values — exactly the dependency order the paper enforces
// with per-group barriers on the GPU.
//
// This file owns all hierarchization arithmetic. Each sequential entry point
// but hierarchize_literal (the Alg. 6 reference) is a loop over one of two
// work lists at one thread: the subspaces of each level group (per-subspace
// update, Alg. 6) or the pole roots of each dimension (Alg. 1 pole
// recursion). The OpenMP drivers in csg/parallel/omp_algorithms.hpp run the
// same kernels over the same lists and only add the static partition and
// the barriers, so every path stays bit-identical by construction.
#pragma once

#include <cstdint>
#include <vector>

#include "csg/core/compact_storage.hpp"
#include "csg/core/level_enumeration.hpp"

namespace csg {

/// Flat position of the dimension-t left/right hierarchical parent of the
/// point (l, i), or ~0 if the parent is the domain boundary (contribution 0
/// for the zero-boundary grids of the paper).
inline constexpr flat_index_t kBoundaryParent = ~flat_index_t{0};

flat_index_t parent_flat_index(const RegularSparseGrid& grid, LevelVector l,
                               IndexVector i, dim_t t, bool right);

/// In-place hierarchization (Alg. 6), subspace-wise traversal: per dimension,
/// level groups descending, each group's subspaces in rank order, points via
/// the index odometer (advance_index). O(N * d^2) like the paper's version,
/// but without the per-point idx2gp decode.
void hierarchize(CompactStorage& storage);

/// Literal transcription of Alg. 6: per dimension, one flat loop
/// j = N-1 ... 0 with a full idx2gp decode per point. Kept as an executable
/// reference for tests and the ablation benchmarks.
void hierarchize_literal(CompactStorage& storage);

/// Pole-based in-place hierarchization: the unidirectional principle.
/// For each dimension, the grid decomposes into 1d "poles" (all points
/// sharing every coordinate except dimension t). Within a subspace family
/// l' = l except l'[t] = lev, the flat position factors as
///   offs[lev] + A * 2^lev * S + c * S + B
/// with A/B the row-major prefix/suffix of the other dimensions and
/// S = prod_{s>t} 2^{l_s}, so the classic scalar Alg. 1 recursion runs on
/// direct index arithmetic — no gp2idx, no idx2gp, no parent lookups at
/// all. Same O(N d) operation count as hierarchize() but with the lowest
/// constant; results are bit-identical. Exposed both as the fastest CPU
/// path and as an ablation subject (bench_ablation_traversal).
void hierarchize_poles(CompactStorage& storage);

/// Pole-based inverse transform (mirror of hierarchize_poles).
void dehierarchize_poles(CompactStorage& storage);

/// In-place inverse transform: hierarchical coefficients back to nodal
/// values (the decompression counterpart used by round-trip tests and the
/// Fig. 1 pipeline). Processes dimensions in reverse and level groups in
/// ascending order.
void dehierarchize(CompactStorage& storage);

// ---------------------------------------------------------------------------
// Kernels and work lists shared by the entry points above and csg::parallel.
// ---------------------------------------------------------------------------

/// Forward: nodal values to hierarchical coefficients. Inverse: back.
enum class Direction : std::uint8_t { kForward, kInverse };

/// Sweep order of the per-subspace transform: calls group(t, j) for every
/// dimension t and level group j >= 1 (group 0 has only boundary parents).
/// Forward runs t ascending with groups descending, so parents are read
/// before their own update in t; inverse runs t descending with groups
/// ascending, so parents are already restored. Subspaces within one call
/// are independent; calls must not overlap.
template <typename GroupFn>
void for_each_sweep_group(const RegularSparseGrid& grid, Direction dir,
                          GroupFn&& group) {
  const dim_t d = grid.dim();
  const level_t n = grid.level();
  if (dir == Direction::kForward) {
    for (dim_t t = 0; t < d; ++t)
      for (level_t j = n; j-- > 1;) group(t, j);
  } else {
    for (dim_t t = d; t-- > 0;)
      for (level_t j = 1; j < n; ++j) group(t, j);
  }
}

/// Item k of level group j's work list: the group's subspaces in rank
/// order, k < grid.subspaces_in_group(j). LevelRange(d, j) walks the same
/// list front to back.
inline LevelVector group_subspace(const RegularSparseGrid& grid, level_t j,
                                  std::uint64_t k) {
  return unrank_subspace(grid.dim(), j, k, grid.binmat());
}

/// The per-(dimension, subspace) update of Alg. 6: every point of subspace
/// l gets the mean of its two dimension-t parents subtracted (forward) or
/// added back (inverse). A no-op when l[t] == 0.
void transform_subspace(CompactStorage& storage, const LevelVector& l,
                        dim_t t, Direction dir);

/// Work list of the pole transform in dimension t: the subspaces with
/// l[t] == 0, level groups ascending, each group in rank order. The pole
/// families they root are disjoint point sets.
std::vector<LevelVector> pole_roots(const RegularSparseGrid& grid, dim_t t);

/// Alg. 1 (forward) or its inverse along dimension t over every pole
/// rooted in subspace `root` (root[t] == 0).
void transform_pole_root(CompactStorage& storage, const LevelVector& root,
                         dim_t t, Direction dir);

}  // namespace csg

// Storage-agnostic sparse grid algorithms.
//
// Two families, templated over the GridStorage concept:
//
//  * the paper's ORIGINAL recursive algorithms (Sec. 3, Alg. 1/2): depth-
//    first 1d hierarchization along poles with parent values passed down the
//    recursion, and evaluation recursing over both levels and dimensions.
//    These are the "usual" algorithms the paper starts from and the ones it
//    parallelized with OpenMP tasking on the CPU baselines.
//
//  * key-value transcriptions of the ITERATIVE algorithms (Sec. 4.3,
//    Alg. 6/7) that address points through get/set instead of raw flat
//    positions, so they run over map/hash/tree storages too.
//
// Running both families over all five storages and checking they agree is
// one of the main integration tests; timing them per storage is Fig. 9.
#pragma once

#include <span>
#include <vector>

#include "csg/baselines/storage_concept.hpp"
#include "csg/core/grid_point.hpp"
#include "csg/core/level_enumeration.hpp"

namespace csg::baselines {

/// Visit every grid point (level group ascending, subspaces in enumeration
/// order, points row-major) — the storage-agnostic way to initialize nodal
/// values.
template <typename Visitor>
void for_each_point(const RegularSparseGrid& grid, Visitor&& visit) {
  const dim_t d = grid.dim();
  for (level_t j = 0; j < grid.level(); ++j) {
    for (const LevelVector& l : LevelRange(d, j)) {
      IndexVector i(d, 1);
      do {
        visit(l, i);
      } while (advance_index(l, i));
    }
  }
}

/// Fill a storage with nodal values of f at every grid point.
template <GridStorage S, typename F>
void sample(S& storage, F&& f) {
  for_each_point(storage.grid(), [&](const LevelVector& l,
                                     const IndexVector& i) {
    storage.set(l, i, f(coordinates(GridPoint{l, i})));
  });
}

// ---------------------------------------------------------------------------
// Iterative algorithms through the key-value interface (Alg. 6/7).
// ---------------------------------------------------------------------------

namespace detail {

template <GridStorage S>
real_t parent_value_kv(const S& storage, LevelVector l, IndexVector i, dim_t t,
                       bool right) {
  const Parent1d p =
      right ? right_parent_1d(l[t], i[t]) : left_parent_1d(l[t], i[t]);
  if (p.is_boundary) return 0;
  l[t] = p.level;
  i[t] = p.index;
  return storage.get(l, i);
}

}  // namespace detail

/// Alg. 6 through get/set: per dimension, level groups descending.
template <GridStorage S>
void hierarchize_iterative(S& storage) {
  const RegularSparseGrid& grid = storage.grid();
  const dim_t d = grid.dim();
  for (dim_t t = 0; t < d; ++t) {
    for (level_t j = grid.level(); j-- > 1;) {
      for (const LevelVector& l : LevelRange(d, j)) {
        if (l[t] == 0) continue;
        IndexVector i(d, 1);
        do {
          const real_t v1 = detail::parent_value_kv(storage, l, i, t, false);
          const real_t v2 = detail::parent_value_kv(storage, l, i, t, true);
          storage.set(l, i, storage.get(l, i) - (v1 + v2) / 2);
        } while (advance_index(l, i));
      }
    }
  }
}

/// Inverse of hierarchize_iterative: level groups ascending, adding.
template <GridStorage S>
void dehierarchize_iterative(S& storage) {
  const RegularSparseGrid& grid = storage.grid();
  const dim_t d = grid.dim();
  for (dim_t t = d; t-- > 0;) {
    for (level_t j = 1; j < grid.level(); ++j) {
      for (const LevelVector& l : LevelRange(d, j)) {
        if (l[t] == 0) continue;
        IndexVector i(d, 1);
        do {
          const real_t v1 = detail::parent_value_kv(storage, l, i, t, false);
          const real_t v2 = detail::parent_value_kv(storage, l, i, t, true);
          storage.set(l, i, storage.get(l, i) + (v1 + v2) / 2);
        } while (advance_index(l, i));
      }
    }
  }
}

/// Alg. 7 through get: walk all subspaces with the next iterator, one basis
/// per subspace.
template <GridStorage S>
real_t evaluate_iterative(const S& storage, const CoordVector& x) {
  const RegularSparseGrid& grid = storage.grid();
  CSG_EXPECTS(x.size() == grid.dim());
  const dim_t d = grid.dim();
  real_t res = 0;
  for (level_t j = 0; j < grid.level(); ++j) {
    for (const LevelVector& l : LevelRange(d, j)) {
      real_t prod = 1;
      IndexVector i(d);
      for (dim_t t = 0; t < d; ++t) {
        i[t] = support_index_1d(l[t], x[t]);
        prod *= hat_basis_1d(l[t], i[t], x[t]);
        if (prod == 0) break;
      }
      if (prod != 0) res += prod * storage.get(l, i);
    }
  }
  return res;
}

/// Cache-blocked Alg. 7 over any storage (the Sec. 4.3 optimization): the
/// subspace loop is hoisted outside a block of evaluation points so one
/// subspace's coefficients are reused across the whole block while hot.
/// This is what keeps evaluation off the memory wall in Fig. 11b.
template <GridStorage S>
std::vector<real_t> evaluate_many_blocked_iterative(
    const S& storage, std::span<const CoordVector> points,
    std::size_t block_size = 64) {
  CSG_EXPECTS(block_size >= 1);
  const RegularSparseGrid& grid = storage.grid();
  const dim_t d = grid.dim();
  std::vector<real_t> out(points.size(), 0);
  IndexVector i(d);
  for (std::size_t b0 = 0; b0 < points.size(); b0 += block_size) {
    const std::size_t b1 = std::min(b0 + block_size, points.size());
    for (level_t j = 0; j < grid.level(); ++j) {
      for (const LevelVector& l : LevelRange(d, j)) {
        for (std::size_t p = b0; p < b1; ++p) {
          real_t prod = 1;
          for (dim_t t = 0; t < d; ++t) {
            i[t] = support_index_1d(l[t], points[p][t]);
            prod *= hat_basis_1d(l[t], i[t], points[p][t]);
            if (prod == 0) break;
          }
          if (prod != 0) out[p] += prod * storage.get(l, i);
        }
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// The original recursive algorithms (Sec. 3, Alg. 1/2).
// ---------------------------------------------------------------------------

namespace detail {

/// Alg. 1: 1d hierarchization along dimension t of the pole fixed by
/// (l, i) outside t. Parent values ride down the recursion as leftVal /
/// rightVal, so no parent lookups happen at all. `budget` is the maximum
/// 0-based level dimension t may take on this pole.
template <GridStorage S>
void hierarchize1d_rec(S& storage, LevelVector& l, IndexVector& i, dim_t t,
                       level_t lev, index1d_t idx, level_t budget,
                       real_t left_val, real_t right_val) {
  l[t] = lev;
  i[t] = idx;
  const real_t val = storage.get(l, i);
  if (lev < budget) {
    hierarchize1d_rec(storage, l, i, t, lev + 1, 2 * idx - 1, budget, left_val,
                      val);
    hierarchize1d_rec(storage, l, i, t, lev + 1, 2 * idx + 1, budget, val,
                      right_val);
    l[t] = lev;  // restore after the recursion mutated the scratch vectors
    i[t] = idx;
  }
  storage.set(l, i, val - (left_val + right_val) / 2);
}

/// Inverse of hierarchize1d_rec: top-down, nodal parent values are already
/// restored when the children consume them.
template <GridStorage S>
void dehierarchize1d_rec(S& storage, LevelVector& l, IndexVector& i, dim_t t,
                         level_t lev, index1d_t idx, level_t budget,
                         real_t left_val, real_t right_val) {
  l[t] = lev;
  i[t] = idx;
  const real_t val =
      storage.get(l, i) + (left_val + right_val) / 2;
  storage.set(l, i, val);
  if (lev < budget) {
    dehierarchize1d_rec(storage, l, i, t, lev + 1, 2 * idx - 1, budget,
                        left_val, val);
    dehierarchize1d_rec(storage, l, i, t, lev + 1, 2 * idx + 1, budget, val,
                        right_val);
  }
}

/// Invoke op(l, i, budget_for_dim_t) for every pole along dimension t: all
/// points with l_t = 0, i_t = 1 (the paper's "starting from all grid points
/// with l_d = 1 and i_d = 1", Sec. 3.1, in its 1-based notation).
template <typename Op>
void for_each_pole(const RegularSparseGrid& grid, dim_t t, Op&& op) {
  const dim_t d = grid.dim();
  const level_t n = grid.level();
  for (level_t j = 0; j < n; ++j) {
    for (const LevelVector& l : LevelRange(d, j)) {
      if (l[t] != 0) continue;
      const auto budget = static_cast<level_t>(n - 1 - l.l1_norm());
      LevelVector lc = l;
      IndexVector i(d, 1);
      for (;;) {
        op(lc, i, budget);
        dim_t s = d;
        bool carry = true;
        while (s-- > 0) {
          if (s == t) continue;  // dimension t stays at the pole root
          i[s] += 2;
          if (i[s] < (index1d_t{1} << (l[s] + 1))) {
            carry = false;
            break;
          }
          i[s] = 1;
        }
        if (carry) break;
      }
    }
  }
}

}  // namespace detail

/// The original recursive hierarchization: for each dimension, run Alg. 1
/// along every pole, with zero boundary values seeding the recursion.
template <GridStorage S>
void hierarchize_recursive(S& storage) {
  const RegularSparseGrid& grid = storage.grid();
  for (dim_t t = 0; t < grid.dim(); ++t) {
    detail::for_each_pole(grid, t, [&](LevelVector& l, IndexVector& i,
                                       level_t budget) {
      detail::hierarchize1d_rec(storage, l, i, t, 0, 1, budget, real_t{0},
                                real_t{0});
    });
  }
}

/// Recursive inverse transform (decompression counterpart of Alg. 1).
template <GridStorage S>
void dehierarchize_recursive(S& storage) {
  const RegularSparseGrid& grid = storage.grid();
  for (dim_t t = grid.dim(); t-- > 0;) {
    detail::for_each_pole(grid, t, [&](LevelVector& l, IndexVector& i,
                                       level_t budget) {
      detail::dehierarchize1d_rec(storage, l, i, t, 0, 1, budget, real_t{0},
                                  real_t{0});
    });
  }
}

namespace detail {

/// Alg. 2 extended to d dimensions: recurse over dimensions, and within a
/// dimension descend only the 1d tree path whose supports contain x (the
/// line-4 optimization of Alg. 2). Each surviving leaf contributes one
/// basis-product times its coefficient.
template <GridStorage S>
real_t evaluate_rec(const S& storage, LevelVector& l, IndexVector& i,
                    const CoordVector& x, dim_t t, level_t budget,
                    real_t prod) {
  if (t == x.size()) return prod * storage.get(l, i);
  real_t res = 0;
  for (level_t lev = 0; lev <= budget; ++lev) {
    const index1d_t idx = support_index_1d(lev, x[t]);
    const real_t b = hat_basis_1d(lev, idx, x[t]);
    if (b == 0) break;  // x sits on this level's grid line: deeper levels
                        // of this branch contribute nothing either
    l[t] = lev;
    i[t] = idx;
    res += evaluate_rec(storage, l, i, x, t + 1, budget - lev, prod * b);
  }
  l[t] = 0;
  i[t] = 1;
  return res;
}

}  // namespace detail

/// The original recursive evaluation (Alg. 2 with recursion over dimensions).
template <GridStorage S>
real_t evaluate_recursive(const S& storage, const CoordVector& x) {
  const RegularSparseGrid& grid = storage.grid();
  CSG_EXPECTS(x.size() == grid.dim());
  LevelVector l(grid.dim(), 0);
  IndexVector i(grid.dim(), 1);
  return detail::evaluate_rec(storage, l, i, x, 0, grid.level() - 1,
                              real_t{1});
}

/// Convenience sweep used by benchmarks.
template <GridStorage S>
std::vector<real_t> evaluate_many_recursive(const S& storage,
                                            std::span<const CoordVector> pts) {
  std::vector<real_t> out(pts.size());
  for (std::size_t p = 0; p < pts.size(); ++p)
    out[p] = evaluate_recursive(storage, pts[p]);
  return out;
}

}  // namespace csg::baselines

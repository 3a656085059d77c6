#include "csg/core/hierarchize.hpp"

#include <array>

#include "csg/core/grid_point.hpp"

namespace csg {

flat_index_t parent_flat_index(const RegularSparseGrid& grid, LevelVector l,
                               IndexVector i, dim_t t, bool right) {
  const Parent1d p =
      right ? right_parent_1d(l[t], i[t]) : left_parent_1d(l[t], i[t]);
  if (p.is_boundary) return kBoundaryParent;
  l[t] = p.level;
  i[t] = p.index;
  return grid.gp2idx(l, i);
}

namespace {

real_t parent_value(const CompactStorage& storage, const LevelVector& l,
                    const IndexVector& i, dim_t t, bool right) {
  const flat_index_t p =
      parent_flat_index(storage.grid(), l, i, t, right);
  return p == kBoundaryParent ? real_t{0} : storage[p];
}

/// Scalar Alg. 1 recursion over one pole of dimension t in the flat array.
/// Point (lev, c) — c = (i-1)/2 — sits at offs[lev] + ((A << lev) + c) * S
/// + B. Forward: children consume the pre-update ancestor values riding
/// down the recursion; inverse: the point is restored before its children
/// read it.
struct PoleTransform {
  real_t* data;
  const flat_index_t* offs;
  flat_index_t prefix;  // A
  flat_index_t stride;  // S
  flat_index_t suffix;  // B
  level_t budget;

  flat_index_t position(level_t lev, flat_index_t c) const {
    return offs[lev] + ((prefix << lev) + c) * stride + suffix;
  }

  void forward(level_t lev, flat_index_t c, real_t left, real_t right) const {
    const flat_index_t pos = position(lev, c);
    const real_t cur = data[pos];
    if (lev < budget) {
      forward(lev + 1, 2 * c, left, cur);
      forward(lev + 1, 2 * c + 1, cur, right);
    }
    data[pos] = cur - (left + right) / 2;
  }

  void inverse(level_t lev, flat_index_t c, real_t left, real_t right) const {
    const flat_index_t pos = position(lev, c);
    const real_t cur = data[pos] + (left + right) / 2;
    data[pos] = cur;
    if (lev < budget) {
      inverse(lev + 1, 2 * c, left, cur);
      inverse(lev + 1, 2 * c + 1, cur, right);
    }
  }
};

/// Alg. 6 (forward) or its inverse: the per-subspace update over every
/// level group's work list, in sweep order. LevelRange walks the list in
/// rank order without group_subspace's per-item unranking.
void transform_groups(CompactStorage& storage, Direction dir) {
  const RegularSparseGrid& grid = storage.grid();
  for_each_sweep_group(grid, dir, [&](dim_t t, level_t j) {
    for (const LevelVector& l : LevelRange(grid.dim(), j))
      transform_subspace(storage, l, t, dir);
  });
}

/// The pole transform over every dimension's pole roots.
void transform_poles(CompactStorage& storage, Direction dir) {
  const RegularSparseGrid& grid = storage.grid();
  for (dim_t t = 0; t < grid.dim(); ++t)
    for (const LevelVector& root : pole_roots(grid, t))
      transform_pole_root(storage, root, t, dir);
}

}  // namespace

void transform_subspace(CompactStorage& storage, const LevelVector& l,
                        dim_t t, Direction dir) {
  if (l[t] == 0) return;  // both parents on the boundary
  IndexVector i(l.size(), 1);
  flat_index_t pos = storage.grid().subspace_offset(l);
  do {
    const real_t v1 = parent_value(storage, l, i, t, /*right=*/false);
    const real_t v2 = parent_value(storage, l, i, t, /*right=*/true);
    if (dir == Direction::kForward)
      storage[pos] -= (v1 + v2) / 2;
    else
      storage[pos] += (v1 + v2) / 2;
    ++pos;
  } while (advance_index(l, i));
}

std::vector<LevelVector> pole_roots(const RegularSparseGrid& grid, dim_t t) {
  std::vector<LevelVector> roots;
  for (level_t j = 0; j < grid.level(); ++j)
    for (const LevelVector& l : LevelRange(grid.dim(), j))
      if (l[t] == 0) roots.push_back(l);
  return roots;
}

void transform_pole_root(CompactStorage& storage, const LevelVector& root,
                         dim_t t, Direction dir) {
  CSG_EXPECTS(root[t] == 0);
  const RegularSparseGrid& grid = storage.grid();
  const dim_t d = grid.dim();
  const auto budget = static_cast<level_t>(grid.level() - 1 - root.l1_norm());
  std::array<flat_index_t, kMaxLevel> offs{};
  LevelVector lt = root;
  for (level_t lev = 0; lev <= budget; ++lev) {
    lt[t] = lev;
    offs[lev] = grid.subspace_offset(lt);
  }
  flat_index_t prefix_count = 1, stride = 1;
  for (dim_t s = 0; s < t; ++s) prefix_count <<= root[s];
  for (dim_t s = t + 1; s < d; ++s) stride <<= root[s];
  PoleTransform pole{storage.data(), offs.data(), 0, stride, 0, budget};
  for (flat_index_t a = 0; a < prefix_count; ++a) {
    pole.prefix = a;
    for (flat_index_t b = 0; b < stride; ++b) {
      pole.suffix = b;
      if (dir == Direction::kForward)
        pole.forward(0, 0, 0, 0);
      else
        pole.inverse(0, 0, 0, 0);
    }
  }
}

void hierarchize(CompactStorage& storage) {
  transform_groups(storage, Direction::kForward);
}

void dehierarchize(CompactStorage& storage) {
  transform_groups(storage, Direction::kInverse);
}

void hierarchize_poles(CompactStorage& storage) {
  transform_poles(storage, Direction::kForward);
}

void dehierarchize_poles(CompactStorage& storage) {
  transform_poles(storage, Direction::kInverse);
}

void hierarchize_literal(CompactStorage& storage) {
  const RegularSparseGrid& grid = storage.grid();
  const dim_t d = grid.dim();
  for (dim_t t = 0; t < d; ++t) {
    for (flat_index_t j = grid.num_points(); j-- > 0;) {
      const GridPoint gp = grid.idx2gp(j);
      const real_t v1 = parent_value(storage, gp.level, gp.index, t, false);
      const real_t v2 = parent_value(storage, gp.level, gp.index, t, true);
      storage[j] -= (v1 + v2) / 2;
    }
  }
}

}  // namespace csg

#include "csg/core/restriction.hpp"

#include "csg/core/grid_point.hpp"
#include "csg/core/level_enumeration.hpp"

namespace csg {

CompactStorage restrict_to_plane(const CompactStorage& storage,
                                 const DimVector<dim_t>& kept_dims,
                                 const CoordVector& anchor) {
  const RegularSparseGrid& grid = storage.grid();
  const dim_t d = grid.dim();
  const dim_t k = kept_dims.size();
  CSG_EXPECTS(k >= 1 && k < d);
  CSG_EXPECTS(anchor.size() == d - k);
  for (dim_t s = 0; s + 1 < k; ++s)
    CSG_EXPECTS(kept_dims[s] < kept_dims[s + 1]);
  CSG_EXPECTS(kept_dims[k - 1] < d);
  for (const real_t a : anchor) CSG_EXPECTS(a >= 0 && a <= 1);

  CompactStorage out(k, grid.level());
  const RegularSparseGrid& out_grid = out.grid();

  // Membership mask for O(1) kept/dropped classification.
  DimVector<dim_t> kept_slot(d, static_cast<dim_t>(~0u));
  DimVector<dim_t> dropped_slot(d, static_cast<dim_t>(~0u));
  {
    dim_t ks = 0, ds = 0;
    for (dim_t t = 0; t < d; ++t) {
      if (ks < k && kept_dims[ks] == t)
        kept_slot[t] = ks++;
      else
        dropped_slot[t] = ds++;
    }
  }

  // One pass over the source subspaces: within a subspace the dropped-dim
  // weight only depends on the dropped components of i, and the kept
  // destination subspace is fixed, so the inner loop accumulates rows.
  LevelVector lk(k);
  IndexVector ik(k);
  for (level_t j = 0; j < grid.level(); ++j) {
    flat_index_t pos = grid.group_offset(j);
    for (const LevelVector& l : LevelRange(d, j)) {
      for (dim_t t = 0; t < d; ++t)
        if (kept_slot[t] != static_cast<dim_t>(~0u))
          lk[kept_slot[t]] = l[t];
      const flat_index_t out_base = out_grid.subspace_offset(lk);
      IndexVector i(d, 1);
      do {
        // Dropped-dimension weight at the anchor.
        real_t w = 1;
        for (dim_t t = 0; t < d && w != 0; ++t) {
          if (dropped_slot[t] != static_cast<dim_t>(~0u))
            w *= hat_basis_1d(l[t], i[t], anchor[dropped_slot[t]]);
        }
        if (w != 0) {
          for (dim_t t = 0; t < d; ++t)
            if (kept_slot[t] != static_cast<dim_t>(~0u))
              ik[kept_slot[t]] = i[t];
          out[out_base + out_grid.point_index_in_subspace(lk, ik)] +=
              w * storage[pos];
        }
        ++pos;
      } while (advance_index(l, i));
    }
    CSG_ASSERT(pos == grid.group_offset(j + 1));
  }
  return out;
}

CoordVector embed_in_plane(dim_t full_dim, const DimVector<dim_t>& kept_dims,
                           const CoordVector& anchor, const CoordVector& x) {
  CSG_EXPECTS(x.size() == kept_dims.size());
  CSG_EXPECTS(anchor.size() == full_dim - kept_dims.size());
  CoordVector full(full_dim);
  dim_t ks = 0, ds = 0;
  for (dim_t t = 0; t < full_dim; ++t) {
    if (ks < kept_dims.size() && kept_dims[ks] == t)
      full[t] = x[ks++];
    else
      full[t] = anchor[ds++];
  }
  return full;
}

}  // namespace csg

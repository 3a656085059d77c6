// Enumeration of subspace level vectors (paper Sec. 4.2).
//
// The set L^d_n = { l in N_0^d : |l|_1 = n } is ordered by the recursive
// scheme of Alg. 3; Alg. 4 turns that order into an O(d) iterator `next`,
// and Eq. 4 (`subspace_index`) ranks a level vector within L^d_n in O(d)
// using binomial lookups. `unrank_subspace` inverts the ranking.
#pragma once

#include <functional>

#include "csg/core/binomial_table.hpp"
#include "csg/core/dim_vector.hpp"
#include "csg/core/types.hpp"

namespace csg {

/// |L^d_n| = C(d-1+n, d-1), Eq. 2 — the number of subspaces on level sum n.
inline std::uint64_t num_subspaces(dim_t d, level_t n,
                                   const BinomialTable& binmat) {
  CSG_EXPECTS(d >= 1);
  return binmat(d - 1 + n, d - 1);
}

/// First level vector in enumeration order: (n, 0, ..., 0)  (Eq. 3).
inline LevelVector first_level(dim_t d, level_t n) {
  CSG_EXPECTS(d >= 1 && d <= kMaxDim);
  LevelVector l(d, 0);
  l[0] = n;
  return l;
}

/// Last level vector in enumeration order: (0, ..., 0, n)  (Eq. 3).
inline LevelVector last_level(dim_t d, level_t n) {
  CSG_EXPECTS(d >= 1 && d <= kMaxDim);
  LevelVector l(d, 0);
  l[d - 1] = n;
  return l;
}

/// Iterator increment (Alg. 4): the unique successor of l in the order of
/// Alg. 3. Precondition: l != last_level (i.e. some component before the last
/// is non-zero).
inline LevelVector next_level(const LevelVector& l) {
  // Bounded scan, and the precondition check precedes any use of t: an
  // all-zero vector (e.g. the single subspace of an n = 0 grid) must abort
  // here instead of reading past the end of l.
  dim_t t = 0;
  while (t < l.size() && l[t] == 0) ++t;
  CSG_EXPECTS(t + 1 < l.size() && "next_level called on the last level vector");
  LevelVector r = l;
  r[t] = 0;
  r[0] = l[t] - 1;  // after r[t]=0 so that the t==0 case degenerates correctly
  r[t + 1] = l[t + 1] + 1;
  return r;
}

/// In-place variant of next_level for hot loops; returns false (leaving l at
/// the last vector) when l has no successor.
inline bool advance_level(LevelVector& l) {
  dim_t t = 0;
  while (t < l.size() && l[t] == 0) ++t;
  if (t + 1 >= l.size()) return false;  // all-zero vector or last vector
  const level_t lt = l[t];
  l[t] = 0;
  l[0] = lt - 1;
  l[t + 1] += 1;
  return true;
}

/// Index odometer of subspace l: advances i to the next point of l in
/// row-major order (last dimension fastest, odd indices 1, 3, ...,
/// 2^{l_t+1} - 1). Returns false after the last point, with i back at
/// (1, ..., 1).
inline bool advance_index(const LevelVector& l, IndexVector& i) {
  for (dim_t t = l.size(); t-- > 0;) {
    i[t] += 2;
    if (i[t] < (index1d_t{1} << (l[t] + 1))) return true;
    i[t] = 1;
  }
  return false;
}

/// Rank of l within L^d_{|l|_1} under the Alg. 3 order (Eq. 4):
///   subspaceidx(l) = sum_{t=1}^{d-1} [ C(t + S_t, t) - C(t + S_{t-1}, t) ]
/// with partial sums S_t = l_0 + ... + l_t. Runs in O(d); all binomials come
/// from binmat.
inline std::uint64_t subspace_index(const LevelVector& l,
                                    const BinomialTable& binmat) {
  std::uint64_t sum = l[0];
  std::uint64_t rank = 0;
  // The rank later feeds `subspace_index(l) << |l|_1` in subspace_offset
  // (regular_grid.hpp), so it must carry the full 64-bit width the grid
  // constructor's < 2^63 size guard admits (csg-lint shift-width anchor).
  static_assert(sizeof(rank) == 8 && kMaxLevel < 64);
  for (dim_t t = 1; t < l.size(); ++t) {
    rank -= binmat(static_cast<std::uint32_t>(t + sum), t);
    sum += l[t];
    rank += binmat(static_cast<std::uint32_t>(t + sum), t);
  }
  return rank;
}

/// Inverse of subspace_index: the level vector of the given rank within
/// L^d_n. O(d + n) via the block structure of the Alg. 3 order (the last
/// component ascends, each value k owning a block of |L^{d-1}_{n-k}| ranks).
inline LevelVector unrank_subspace(dim_t d, level_t n, std::uint64_t rank,
                                   const BinomialTable& binmat) {
  CSG_EXPECTS(d >= 1 && d <= kMaxDim);
  CSG_EXPECTS(rank < num_subspaces(d, n, binmat));
  LevelVector l(d, 0);
  level_t remaining = n;
  for (dim_t t = d - 1; t >= 1; --t) {
    level_t k = 0;
    for (;; ++k) {
      const std::uint64_t block = binmat(t - 1 + remaining - k, t - 1);
      if (rank < block) break;
      rank -= block;
    }
    l[t] = k;
    remaining -= k;
  }
  CSG_ASSERT(rank == 0);
  l[0] = remaining;
  return l;
}

/// Reference enumeration (Alg. 3), recursive: invokes `visit` for every
/// l in L^d_n in order. Used by tests to pin the iterative scheme down.
inline void enumerate_levels(dim_t d, level_t n,
                             const std::function<void(const LevelVector&)>& visit) {
  CSG_EXPECTS(d >= 1 && d <= kMaxDim);
  LevelVector scratch(d, 0);
  // enumerate(k+1, m): fill scratch[0..k] with all vectors summing to m,
  // last component varying slowest, then emit.
  auto rec = [&](auto&& self, dim_t k, level_t m) -> void {
    if (k == 0) {
      scratch[0] = m;
      visit(scratch);
      return;
    }
    for (level_t v = 0; v <= m; ++v) {
      scratch[k] = v;
      self(self, k - 1, m - v);
    }
  };
  rec(rec, d - 1, n);
}

/// Range-for support over L^d_n in enumeration order:
///   for (const LevelVector& l : LevelRange(d, n)) { ... }
class LevelRange {
 public:
  LevelRange(dim_t d, level_t n) : d_(d), n_(n) {}

  class iterator {
   public:
    using value_type = LevelVector;
    using difference_type = std::ptrdiff_t;

    iterator() = default;
    iterator(LevelVector l, bool done) : l_(l), done_(done) {}

    const LevelVector& operator*() const { return l_; }
    const LevelVector* operator->() const { return &l_; }

    iterator& operator++() {
      done_ = !advance_level(l_);
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++*this;
      return old;
    }

    friend bool operator==(const iterator& a, const iterator& b) {
      return a.done_ == b.done_ && (a.done_ || a.l_ == b.l_);
    }

   private:
    LevelVector l_;
    bool done_ = true;
  };

  iterator begin() const { return {first_level(d_, n_), false}; }
  iterator end() const { return {last_level(d_, n_), true}; }

 private:
  dim_t d_;
  level_t n_;
};

}  // namespace csg

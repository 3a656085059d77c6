// Storage-agnostic differential oracles.
//
// Each oracle runs one operation through every implementation the library
// has — iterative/literal/pole-based/OpenMP on the compact structure, the
// recursive and key-value algorithms over the map/hash/prefix-tree
// baselines, the serializer — and checks that they all describe the same
// function. Comparison is ULP-aware (compare.hpp) with two budgets: the
// compact-structure family is bit-identical by construction (exact_ulps,
// default 0), while the recursive baselines re-associate the same sums and
// get a small relative budget plus an absolute floor for the near-zero
// coefficients that cancellation passes through.
//
// Oracles return a result instead of asserting, so the same code drives
// gtest properties (EXPECT_TRUE(r.ok) << r.detail), csgtool selfcheck, and
// any future fuzz driver.
#pragma once

#include <random>
#include <span>
#include <string>
#include <vector>

#include "csg/core/compact_storage.hpp"

namespace csg::testing {

struct OracleResult {
  bool ok = true;
  /// Individual value comparisons performed (coverage indicator).
  std::uint64_t comparisons = 0;
  /// First mismatch, empty when ok. Includes which implementations
  /// disagreed, at which point, and the two values with ULP distance.
  std::string detail;

  explicit operator bool() const { return ok; }
  /// Fold another oracle's outcome into this one (first failure wins).
  void merge(const OracleResult& other);
};

struct OracleOptions {
  /// Budget for the compact-structure family (iterative, literal, poles,
  /// OpenMP): these share arithmetic and order, so 0 = bit-identical.
  std::uint64_t exact_ulps = 0;
  /// Budget for cross-family comparisons (recursive baselines).
  std::uint64_t cross_ulps = 1024;
  /// Absolute floor accompanying cross_ulps / round trips: coefficients
  /// that cancel to near zero carry absolute error from the large values
  /// they were computed from, where a pure ULP budget is meaningless.
  real_t abs_floor = 1e-9;
  /// Thread count for the OpenMP variants.
  int threads = 3;
  /// Run the map/hash/prefix-tree differential baselines (the slow part).
  bool include_baselines = true;
};

/// Every hierarchization implementation agrees on `nodal` (values are
/// interpreted as nodal samples; the input is not modified).
OracleResult check_hierarchize_parity(const CompactStorage& nodal,
                                      const OracleOptions& opts = {});

/// hierarchize/dehierarchize pairings (including mixed traversals) return
/// the original array, and omp_dehierarchize matches dehierarchize
/// bit for bit (exact_ulps).
OracleResult check_round_trip(const CompactStorage& values,
                              const OracleOptions& opts = {});

/// Every evaluation path — plan, walk, blocked at several block sizes,
/// OpenMP, recursive/key-value over the baselines — agrees at `points`
/// (values are interpreted as hierarchical coefficients).
OracleResult check_evaluate_parity(const CompactStorage& coeffs,
                                   std::span<const CoordVector> points,
                                   const OracleOptions& opts = {});

/// Differential battery for the SoA batch kernel (DESIGN.md §14): the SoA
/// and scalar blocked paths are each pinned against the per-point reference
/// walker with the exact_ulps comparator, across a block-size sweep that
/// includes 1, the lane width +-1, and oversized blocks, plus a direct
/// evaluate_block_soa call on a hand-built PointBlock. Kernel selection is
/// flipped via set_eval_kernel and restored on exit.
OracleResult check_eval_soa_parity(const CompactStorage& coeffs,
                                   std::span<const CoordVector> points,
                                   const OracleOptions& opts = {});

/// save/load round trip is bit-exact and shape-preserving.
OracleResult check_serialize_round_trip(const CompactStorage& values);

/// The combination technique reproduces the direct interpolant: sampling
/// the component grids with the compact interpolant of `nodal` (every
/// component point lies on the sparse grid, so this equals sampling the
/// original function), the combined evaluation must agree at `points` and
/// to_compact must return the reference coefficients. Cross-validates the
/// component enumeration and weights against gp2idx/hierarchize/Alg. 7
/// through an independent representation.
OracleResult check_combination_parity(const CompactStorage& nodal,
                                      std::span<const CoordVector> points,
                                      const OracleOptions& opts = {});

/// The spatially adaptive (hash-keyed) representation seeded with the same
/// regular point set computes the same surpluses at every grid point and
/// the same interpolant at `points` as the compact structure.
OracleResult check_adaptive_parity(const CompactStorage& nodal,
                                   std::span<const CoordVector> points,
                                   const OracleOptions& opts = {});

/// The full battery on one grid function: parity, round trip, evaluation
/// differentials at a random point cloud, serialization. `nodal` is
/// interpreted as nodal samples. This is the one-call oracle property
/// tests use.
OracleResult check_all(const CompactStorage& nodal, std::mt19937_64& rng,
                       const OracleOptions& opts = {});

}  // namespace csg::testing

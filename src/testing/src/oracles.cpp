#include "csg/testing/oracles.hpp"

#include <cmath>
#include <sstream>

#include "csg/adaptive/adaptive_grid.hpp"
#include "csg/baselines/generic_algorithms.hpp"
#include "csg/baselines/map_storages.hpp"
#include "csg/baselines/prefix_tree_storage.hpp"
#include "csg/combination/combination_grid.hpp"
#include "csg/core/evaluate.hpp"
#include "csg/core/hierarchize.hpp"
#include "csg/core/point_block.hpp"
#include "csg/core/simd.hpp"
#include "csg/io/serialize.hpp"
#include "csg/parallel/omp_algorithms.hpp"
#include "csg/testing/compare.hpp"
#include "csg/testing/generators.hpp"

namespace csg::testing {

void OracleResult::merge(const OracleResult& other) {
  comparisons += other.comparisons;
  if (ok && !other.ok) {
    ok = false;
    detail = other.detail;
  }
}

namespace {

bool close(real_t a, real_t b, std::uint64_t max_ulps, real_t abs_floor) {
  return almost_equal_ulps(a, b, max_ulps) || std::fabs(a - b) <= abs_floor;
}

/// Compare two coefficient arrays laid out by the same grid; `what` names
/// the pairing for the failure report.
void compare_arrays(OracleResult& r, const CompactStorage& expected,
                    const CompactStorage& got, const std::string& what,
                    std::uint64_t max_ulps, real_t abs_floor) {
  if (!r.ok) return;
  for (flat_index_t j = 0; j < expected.size(); ++j) {
    ++r.comparisons;
    if (!close(expected[j], got[j], max_ulps, abs_floor)) {
      std::ostringstream os;
      const GridPoint gp = expected.grid().idx2gp(j);
      os << what << " disagree at idx " << j << " (l=" << gp.level
         << " i=" << gp.index << "): "
         << describe_mismatch(expected[j], got[j]);
      r.ok = false;
      r.detail = os.str();
      return;
    }
  }
}

/// Compare a baseline storage against the compact reference per point.
template <typename S>
void compare_storage(OracleResult& r, const CompactStorage& expected,
                     const S& got, const std::string& what,
                     std::uint64_t max_ulps, real_t abs_floor) {
  if (!r.ok) return;
  baselines::for_each_point(
      expected.grid(), [&](const LevelVector& l, const IndexVector& i) {
        if (!r.ok) return;
        ++r.comparisons;
        const real_t a = expected.at(l, i);
        const real_t b = got.get(l, i);
        if (!close(a, b, max_ulps, abs_floor)) {
          std::ostringstream os;
          os << what << " disagree at l=" << l << " i=" << i << ": "
             << describe_mismatch(a, b);
          r.ok = false;
          r.detail = os.str();
        }
      });
}

/// Copy the compact array into a key-value baseline storage.
template <typename S>
S to_baseline(const CompactStorage& src) {
  S out(src.grid());
  baselines::for_each_point(src.grid(),
                            [&](const LevelVector& l, const IndexVector& i) {
                              out.set(l, i, src.at(l, i));
                            });
  return out;
}

}  // namespace

OracleResult check_hierarchize_parity(const CompactStorage& nodal,
                                      const OracleOptions& opts) {
  OracleResult r;
  CompactStorage ref = nodal;
  hierarchize(ref);

  {
    CompactStorage s = nodal;
    hierarchize_literal(s);
    compare_arrays(r, ref, s, "hierarchize vs hierarchize_literal",
                   opts.exact_ulps, 0);
  }
  {
    CompactStorage s = nodal;
    hierarchize_poles(s);
    compare_arrays(r, ref, s, "hierarchize vs hierarchize_poles",
                   opts.exact_ulps, 0);
  }
  {
    CompactStorage s = nodal;
    parallel::omp_hierarchize(s, opts.threads);
    compare_arrays(r, ref, s, "hierarchize vs omp_hierarchize",
                   opts.exact_ulps, 0);
  }
  {
    CompactStorage s = nodal;
    parallel::omp_hierarchize_poles(s, opts.threads);
    compare_arrays(r, ref, s, "hierarchize vs omp_hierarchize_poles",
                   opts.exact_ulps, 0);
  }
  if (opts.include_baselines) {
    {
      auto s = to_baseline<baselines::EnhancedHashStorage>(nodal);
      baselines::hierarchize_iterative(s);
      compare_storage(r, ref, s, "hierarchize vs kv-iterative(hash)",
                      opts.exact_ulps, 0);
    }
    {
      auto s = to_baseline<baselines::PrefixTreeStorage>(nodal);
      baselines::hierarchize_recursive(s);
      compare_storage(r, ref, s, "hierarchize vs recursive(prefix-tree)",
                      opts.cross_ulps, opts.abs_floor);
    }
    {
      auto s = to_baseline<baselines::StdMapStorage>(nodal);
      parallel::omp_hierarchize_recursive(s, opts.threads);
      compare_storage(r, ref, s, "hierarchize vs omp-recursive(std-map)",
                      opts.cross_ulps, opts.abs_floor);
    }
  }
  return r;
}

OracleResult check_round_trip(const CompactStorage& values,
                              const OracleOptions& opts) {
  OracleResult r;
  struct Pairing {
    const char* name;
    void (*forward)(CompactStorage&);
    void (*inverse)(CompactStorage&);
  };
  const Pairing pairings[] = {
      {"hierarchize/dehierarchize", &hierarchize, &dehierarchize},
      {"poles/poles", &hierarchize_poles, &dehierarchize_poles},
      {"hierarchize/dehierarchize_poles", &hierarchize,
       &dehierarchize_poles},
      {"poles/dehierarchize", &hierarchize_poles, &dehierarchize},
  };
  for (const Pairing& p : pairings) {
    CompactStorage s = values;
    p.forward(s);
    p.inverse(s);
    compare_arrays(r, values, s, std::string("round trip ") + p.name,
                   opts.cross_ulps, opts.abs_floor);
  }
  {
    CompactStorage s = values;
    parallel::omp_hierarchize(s, opts.threads);
    CompactStorage seq = s;
    dehierarchize(seq);
    parallel::omp_dehierarchize(s, opts.threads);
    compare_arrays(r, seq, s, "dehierarchize vs omp_dehierarchize",
                   opts.exact_ulps, 0);
    compare_arrays(r, values, s, "round trip omp/omp", opts.cross_ulps,
                   opts.abs_floor);
  }
  return r;
}

OracleResult check_evaluate_parity(const CompactStorage& coeffs,
                                   std::span<const CoordVector> points,
                                   const OracleOptions& opts) {
  OracleResult r;
  const RegularSparseGrid& grid = coeffs.grid();
  const std::span<const real_t> raw(coeffs.data(), coeffs.values().size());

  std::vector<real_t> ref(points.size());
  for (std::size_t p = 0; p < points.size(); ++p)
    ref[p] = evaluate(coeffs, points[p]);

  auto compare_values = [&](std::span<const real_t> got,
                            const std::string& what, std::uint64_t max_ulps,
                            real_t abs_floor) {
    if (!r.ok) return;
    if (got.size() != ref.size()) {
      r.ok = false;
      r.detail = what + " returned " + std::to_string(got.size()) +
                 " values for " + std::to_string(ref.size()) + " points";
      return;
    }
    for (std::size_t p = 0; p < ref.size(); ++p) {
      ++r.comparisons;
      if (!close(ref[p], got[p], max_ulps, abs_floor)) {
        std::ostringstream os;
        os << what << " disagrees at point " << p << ": "
           << describe_mismatch(ref[p], got[p]);
        r.ok = false;
        r.detail = os.str();
        return;
      }
    }
  };

  {
    std::vector<real_t> got(points.size());
    for (std::size_t p = 0; p < points.size(); ++p)
      got[p] = evaluate_span_walk(grid, raw, points[p]);
    compare_values(got, "evaluate vs evaluate_span_walk", opts.exact_ulps, 0);
  }
  compare_values(evaluate_many(coeffs, points), "evaluate vs evaluate_many",
                 opts.exact_ulps, 0);
  for (const std::size_t block : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, points.size() + 3}) {
    compare_values(evaluate_many_blocked(coeffs, points, block),
                   "evaluate vs evaluate_many_blocked(block=" +
                       std::to_string(block) + ")",
                   opts.exact_ulps, 0);
  }
  compare_values(parallel::omp_evaluate_many(coeffs, points, opts.threads),
                 "evaluate vs omp_evaluate_many", opts.exact_ulps, 0);
  compare_values(
      parallel::omp_evaluate_many_blocked(coeffs, points, 5, opts.threads),
      "evaluate vs omp_evaluate_many_blocked", opts.exact_ulps, 0);

  if (opts.include_baselines) {
    const auto tree = to_baseline<baselines::PrefixTreeStorage>(coeffs);
    const auto hash = to_baseline<baselines::EnhancedHashStorage>(coeffs);
    std::vector<real_t> rec(points.size()), kv(points.size());
    for (std::size_t p = 0; p < points.size(); ++p) {
      rec[p] = baselines::evaluate_recursive(tree, points[p]);
      kv[p] = baselines::evaluate_iterative(hash, points[p]);
    }
    compare_values(rec, "evaluate vs recursive(prefix-tree)", opts.cross_ulps,
                   opts.abs_floor);
    compare_values(kv, "evaluate vs kv-iterative(hash)", opts.cross_ulps,
                   opts.abs_floor);
    compare_values(
        baselines::evaluate_many_blocked_iterative(hash, points, 9),
        "evaluate vs kv-blocked(hash)", opts.cross_ulps, opts.abs_floor);
  }
  return r;
}

namespace {

/// Restores the process-wide kernel selection when a differential oracle
/// that flips it (check_eval_soa_parity) leaves scope, pass or fail.
class KernelGuard {
 public:
  KernelGuard() : saved_(eval_kernel()) {}
  ~KernelGuard() { set_eval_kernel(saved_); }
  KernelGuard(const KernelGuard&) = delete;
  KernelGuard& operator=(const KernelGuard&) = delete;

 private:
  EvalKernel saved_;
};

}  // namespace

OracleResult check_eval_soa_parity(const CompactStorage& coeffs,
                                   std::span<const CoordVector> points,
                                   const OracleOptions& opts) {
  OracleResult r;
  const std::span<const real_t> raw(coeffs.data(), coeffs.values().size());
  const auto plan = EvaluationPlan::shared(coeffs.grid());

  std::vector<real_t> ref(points.size());
  for (std::size_t p = 0; p < points.size(); ++p)
    ref[p] = evaluate(coeffs, points[p]);

  auto compare_values = [&](std::span<const real_t> got,
                            const std::string& what) {
    if (!r.ok) return;
    if (got.size() != ref.size()) {
      r.ok = false;
      r.detail = what + " returned " + std::to_string(got.size()) +
                 " values for " + std::to_string(ref.size()) + " points";
      return;
    }
    for (std::size_t p = 0; p < ref.size(); ++p) {
      ++r.comparisons;
      if (!close(ref[p], got[p], opts.exact_ulps, 0)) {
        std::ostringstream os;
        os << what << " disagrees at point " << p << ": "
           << describe_mismatch(ref[p], got[p]);
        r.ok = false;
        r.detail = os.str();
        return;
      }
    }
  };

  // Block sweep straddling the lane width: partial tail lanes, single-point
  // blocks, one block holding everything.
  const std::size_t lane = kPointBlockLane;
  const std::size_t sweep[] = {1,        lane - 1,          lane,
                               lane + 1, 3 * lane,          points.size() + 3};
  KernelGuard guard;
  for (const EvalKernel kernel : {EvalKernel::kScalar, EvalKernel::kSoa}) {
    set_eval_kernel(kernel);
    const char* name = kernel == EvalKernel::kSoa ? "soa" : "scalar";
    for (const std::size_t block : sweep) {
      compare_values(evaluate_many_blocked(coeffs, points, block),
                     std::string("evaluate vs blocked[") + name +
                         "](block=" + std::to_string(block) + ")");
    }
    compare_values(
        parallel::omp_evaluate_many_blocked(*plan, raw, points, lane + 1,
                                            opts.threads),
        std::string("evaluate vs omp_blocked[") + name + "]");
  }

  // Direct kernel call on a hand-built PointBlock: the accumulator lanes for
  // the real points must match the walker; the padded tail is scratch.
  if (!points.empty()) {
    PointBlock block;
    block.assign(coeffs.dim(), points);
    evaluate_block_soa(*plan, raw, block);
    compare_values(std::span<const real_t>(block.accum(), points.size()),
                   "evaluate vs evaluate_block_soa(direct)");
  }
  return r;
}

OracleResult check_serialize_round_trip(const CompactStorage& values) {
  OracleResult r;
  std::stringstream blob;
  io::save(values, blob);
  const CompactStorage reloaded = io::load(blob);
  if (!(reloaded.grid() == values.grid())) {
    r.ok = false;
    r.detail = "serialize round trip changed the grid shape";
    return r;
  }
  compare_arrays(r, values, reloaded, "serialize round trip", 0, 0);
  return r;
}

OracleResult check_combination_parity(const CompactStorage& nodal,
                                      std::span<const CoordVector> points,
                                      const OracleOptions& opts) {
  OracleResult r;
  CompactStorage ref = nodal;
  hierarchize(ref);

  // Every component grid point lies on the sparse grid, so sampling the
  // components with the compact interpolant equals sampling the original
  // function there: the combination identity must then hold everywhere.
  combination::CombinationGrid combi(nodal.dim(), nodal.grid().level());
  combi.sample([&](const CoordVector& x) { return evaluate(ref, x); });

  for (std::size_t p = 0; p < points.size(); ++p) {
    ++r.comparisons;
    const real_t direct = evaluate(ref, points[p]);
    const real_t combined = combi.evaluate(points[p]);
    if (!close(direct, combined, opts.cross_ulps, opts.abs_floor)) {
      std::ostringstream os;
      os << "combination identity fails at point " << p << ": "
         << describe_mismatch(direct, combined);
      r.ok = false;
      r.detail = os.str();
      return r;
    }
  }

  // Round-tripping through the replicated representation and back must
  // reproduce the hierarchical coefficients.
  const CompactStorage regathered = combination::to_compact(combi);
  if (!(regathered.grid() == ref.grid())) {
    r.ok = false;
    r.detail = "to_compact(combination) changed the grid shape";
    return r;
  }
  compare_arrays(r, ref, regathered, "combination to_compact round trip",
                 opts.cross_ulps, opts.abs_floor);
  return r;
}

OracleResult check_adaptive_parity(const CompactStorage& nodal,
                                   std::span<const CoordVector> points,
                                   const OracleOptions& opts) {
  OracleResult r;
  CompactStorage ref = nodal;
  hierarchize(ref);

  adaptive::AdaptiveSparseGrid adaptive(nodal.dim(), nodal.grid().level());
  if (adaptive.num_points() != nodal.grid().num_points()) {
    r.ok = false;
    r.detail = "adaptive grid seeded at level " +
               std::to_string(nodal.grid().level()) + " holds " +
               std::to_string(adaptive.num_points()) + " points, compact has " +
               std::to_string(nodal.grid().num_points());
    return r;
  }
  baselines::for_each_point(
      nodal.grid(), [&](const LevelVector& l, const IndexVector& i) {
        adaptive.set_node(GridPoint{l, i}, nodal.at(l, i), 0);
      });
  adaptive.hierarchize();

  // The unstructured hierarchization (per-node ancestor walks) must find
  // the same surpluses the compact unidirectional passes compute.
  adaptive.for_each_node([&](const adaptive::AdaptiveSparseGrid::Node& node) {
    if (!r.ok) return;
    ++r.comparisons;
    const real_t expected = ref.at(node.point.level, node.point.index);
    if (!close(expected, node.surplus, opts.cross_ulps, opts.abs_floor)) {
      std::ostringstream os;
      os << "adaptive surplus disagrees at l=" << node.point.level
         << " i=" << node.point.index << ": "
         << describe_mismatch(expected, node.surplus);
      r.ok = false;
      r.detail = os.str();
    }
  });
  if (!r.ok) return r;

  for (std::size_t p = 0; p < points.size(); ++p) {
    ++r.comparisons;
    const real_t direct = evaluate(ref, points[p]);
    const real_t adapted = adaptive.evaluate(points[p]);
    if (!close(direct, adapted, opts.cross_ulps, opts.abs_floor)) {
      std::ostringstream os;
      os << "adaptive interpolant disagrees at point " << p << ": "
         << describe_mismatch(direct, adapted);
      r.ok = false;
      r.detail = os.str();
      return r;
    }
  }
  return r;
}

OracleResult check_all(const CompactStorage& nodal, std::mt19937_64& rng,
                       const OracleOptions& opts) {
  OracleResult r;
  r.merge(check_hierarchize_parity(nodal, opts));
  r.merge(check_round_trip(nodal, opts));
  CompactStorage coeffs = nodal;
  hierarchize(coeffs);
  const auto pts = random_points(rng, nodal.dim(), 48);
  r.merge(check_evaluate_parity(coeffs, pts, opts));
  r.merge(check_eval_soa_parity(coeffs, pts, opts));
  r.merge(check_serialize_round_trip(coeffs));
  return r;
}

}  // namespace csg::testing

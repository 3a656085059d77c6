#include "csg/parallel/omp_algorithms.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "csg/baselines/map_storages.hpp"
#include "csg/baselines/prefix_tree_storage.hpp"
#include "csg/workloads/functions.hpp"
#include "csg/workloads/sampling.hpp"
#include "csg/testing/param_names.hpp"

namespace csg::parallel {
namespace {

using baselines::sample;

/// 1, 2, a couple of odd counts, and hardware_concurrency() + 3 so the
/// sweep always includes an oversubscribed configuration (more threads than
/// cores forces preemption mid-region, which is what shakes out missing
/// barriers under the TSan lane). Deduplicated: on small machines hw + 3
/// can collide with the fixed counts, and gtest requires unique suffixes.
std::vector<int> thread_counts() {
  std::vector<int> counts{1, 2, 3, 8};
  const unsigned hw = std::thread::hardware_concurrency();
  counts.push_back(static_cast<int>(hw == 0 ? 4 : hw) + 3);
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

class ThreadSweep : public ::testing::TestWithParam<int> {};

TEST_P(ThreadSweep, OmpHierarchizeMatchesSequential) {
  const int threads = GetParam();
  const dim_t d = 4;
  const level_t n = 5;
  const auto f = workloads::simulation_field(d);
  CompactStorage seq(d, n), par(d, n);
  seq.sample(f.f);
  par.sample(f.f);
  hierarchize(seq);
  omp_hierarchize(par, threads);
  for (flat_index_t j = 0; j < seq.size(); ++j)
    ASSERT_EQ(seq[j], par[j]) << "threads=" << threads << " idx=" << j;
}

TEST_P(ThreadSweep, OmpPoleHierarchizeIsBitIdenticalToSequential) {
  const int threads = GetParam();
  const dim_t d = 4;
  const level_t n = 5;
  CompactStorage seq(d, n), par(d, n);
  seq.sample(workloads::simulation_field(d).f);
  par.sample(workloads::simulation_field(d).f);
  hierarchize_poles(seq);
  omp_hierarchize_poles(par, threads);
  for (flat_index_t j = 0; j < seq.size(); ++j)
    ASSERT_EQ(seq[j], par[j]) << "threads=" << threads << " idx=" << j;
}

TEST_P(ThreadSweep, OmpDehierarchizeInvertsOmpHierarchize) {
  const int threads = GetParam();
  const dim_t d = 3;
  const level_t n = 6;
  CompactStorage s(d, n);
  s.sample(workloads::gaussian_bump(d).f);
  const std::vector<real_t> nodal = s.values();
  omp_hierarchize(s, threads);
  omp_dehierarchize(s, threads);
  for (flat_index_t j = 0; j < s.size(); ++j)
    EXPECT_NEAR(s[j], nodal[static_cast<std::size_t>(j)], 1e-12);
}

TEST_P(ThreadSweep, OmpEvaluateMatchesSequential) {
  const int threads = GetParam();
  const dim_t d = 3;
  CompactStorage s(d, 5);
  s.sample(workloads::oscillatory(d).f);
  hierarchize(s);
  const auto pts = workloads::uniform_points(d, 257, 31);
  const auto seq = evaluate_many(s, pts);
  const auto par = omp_evaluate_many(s, pts, threads);
  ASSERT_EQ(par.size(), seq.size());
  for (std::size_t p = 0; p < pts.size(); ++p) EXPECT_EQ(par[p], seq[p]);
}

TEST_P(ThreadSweep, OmpRecursiveHierarchizationOverBaselines) {
  const int threads = GetParam();
  const dim_t d = 3;
  const level_t n = 4;
  const auto f = workloads::gaussian_bump(d);
  CompactStorage ref(d, n);
  ref.sample(f.f);
  hierarchize(ref);

  baselines::PrefixTreeStorage tree(d, n);
  sample(tree, f.f);
  omp_hierarchize_recursive(tree, threads);
  baselines::EnhancedHashStorage hash(d, n);
  sample(hash, f.f);
  omp_hierarchize_recursive(hash, threads);

  baselines::for_each_point(
      ref.grid(), [&](const LevelVector& l, const IndexVector& i) {
        EXPECT_NEAR(tree.get(l, i), ref.get(l, i), 1e-13);
        EXPECT_NEAR(hash.get(l, i), ref.get(l, i), 1e-13);
      });
}

TEST_P(ThreadSweep, OmpRecursiveEvaluationOverBaselines) {
  const int threads = GetParam();
  const dim_t d = 3;
  CompactStorage s(d, 4);
  s.sample(workloads::parabola_product(d).f);
  hierarchize(s);
  baselines::PrefixTreeStorage tree(d, 4);
  sample(tree, workloads::parabola_product(d).f);
  baselines::hierarchize_recursive(tree);
  const auto pts = workloads::uniform_points(d, 100, 77);
  const auto expected = evaluate_many(s, pts);
  const auto got = omp_evaluate_many_recursive(tree, pts, threads);
  for (std::size_t p = 0; p < pts.size(); ++p)
    EXPECT_NEAR(got[p], expected[p], 1e-13);
}

TEST_P(ThreadSweep, OmpPoleAndGroupSchemesAgree) {
  // The two parallel decompositions (per-level-group barriers vs.
  // independent poles) must land on identical bits for any thread count —
  // they are the same arithmetic, only scheduled differently.
  const int threads = GetParam();
  const dim_t d = 4;
  const level_t n = 5;
  CompactStorage groups(d, n), poles(d, n);
  groups.sample(workloads::oscillatory(d).f);
  poles.sample(workloads::oscillatory(d).f);
  omp_hierarchize(groups, threads);
  omp_hierarchize_poles(poles, threads);
  for (flat_index_t j = 0; j < groups.size(); ++j)
    ASSERT_EQ(groups[j], poles[j]) << "threads=" << threads << " idx=" << j;
}

TEST_P(ThreadSweep, OmpBlockedEvaluateEdgeBlockSizes) {
  // Degenerate blockings must not change results or crash: one point per
  // block (maximal scheduling overhead), a block larger than the whole
  // point set (single block), and a size that does not divide the count
  // (ragged final block).
  const int threads = GetParam();
  const dim_t d = 3;
  CompactStorage s(d, 5);
  s.sample(workloads::oscillatory(d).f);
  hierarchize(s);
  const auto pts = workloads::uniform_points(d, 103, 19);  // prime count
  const auto expected = evaluate_many(s, pts);
  for (const std::size_t block :
       {std::size_t{1}, pts.size() + 17, std::size_t{16}, std::size_t{64}}) {
    const auto got = omp_evaluate_many_blocked(s, pts, block, threads);
    ASSERT_EQ(got.size(), expected.size()) << "block=" << block;
    for (std::size_t p = 0; p < pts.size(); ++p)
      ASSERT_EQ(got[p], expected[p])
          << "threads=" << threads << " block=" << block << " point=" << p;
  }
}

TEST_P(ThreadSweep, OmpBlockedEvaluateEmptyPointSet) {
  const int threads = GetParam();
  CompactStorage s(2, 4);
  s.sample(workloads::gaussian_bump(2).f);
  hierarchize(s);
  const std::vector<CoordVector> none;
  EXPECT_TRUE(omp_evaluate_many_blocked(s, none, 8, threads).empty());
  EXPECT_TRUE(omp_evaluate_many(s, none, threads).empty());
}

TEST_P(ThreadSweep, OmpBlockedEvaluateBitIdenticalToSpanWalk) {
  // evaluate_span_walk is the no-plan reference for Alg. 7; the entire
  // evaluation family — plan-based, blocked, threaded — is defined to be
  // bit-identical to it, so EXPECT_EQ, not EXPECT_NEAR.
  const int threads = GetParam();
  const dim_t d = 4;
  CompactStorage s(d, 4);
  s.sample(workloads::parabola_product(d).f);
  hierarchize(s);
  const auto pts = workloads::uniform_points(d, 61, 5);
  const auto got = omp_evaluate_many_blocked(s, pts, 7, threads);
  ASSERT_EQ(got.size(), pts.size());
  for (std::size_t p = 0; p < pts.size(); ++p)
    ASSERT_EQ(got[p], evaluate_span_walk(s.grid(), s.values(), pts[p]))
        << "threads=" << threads << " point=" << p;
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadSweep,
                         ::testing::ValuesIn(thread_counts()),
                         [](const ::testing::TestParamInfo<int>& tpi) {
                           return csg::testing::prefixed_name("t", tpi.param);
                         });

TEST(Parallel, RepeatedRunsAreDeterministic) {
  // Static decomposition writes each coefficient exactly once per pass, so
  // results do not depend on scheduling.
  const dim_t d = 4;
  CompactStorage a(d, 4), b(d, 4);
  a.sample(workloads::simulation_field(d).f);
  b.sample(workloads::simulation_field(d).f);
  omp_hierarchize(a, 4);
  omp_hierarchize(b, 4);
  EXPECT_EQ(a.values(), b.values());
}

TEST(ParallelDeath, ZeroThreadsRejected) {
  CompactStorage s(2, 3);
  EXPECT_DEATH(omp_hierarchize(s, 0), "precondition");
  EXPECT_DEATH(omp_dehierarchize(s, 0), "precondition");
  EXPECT_DEATH(omp_hierarchize_poles(s, 0), "precondition");
}

}  // namespace
}  // namespace csg::parallel

// Tests for workload building blocks: node sampling, task shapes, pex
// error models, and the statistical properties of the generated population.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dsrt/sim/rng.hpp"
#include "dsrt/stats/tally.hpp"
#include "dsrt/workload/pex_error.hpp"
#include "dsrt/workload/shapes.hpp"

namespace {

using namespace dsrt::workload;
using dsrt::core::SpecKind;
using dsrt::core::SpecVertex;
using dsrt::core::TaskSpec;
using dsrt::core::TaskSpecBuilder;
using dsrt::sim::Rng;

TEST(SampleDistinctNodes, ProducesDistinctIdsInRange) {
  Rng rng(1);
  ShapeScratch scratch;
  for (int trial = 0; trial < 200; ++trial) {
    sample_distinct_nodes_into(6, 4, rng, scratch);
    const auto& sample = scratch.sites;
    ASSERT_EQ(sample.size(), 4u);
    std::set<dsrt::core::NodeId> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 4u);
    for (auto node : sample) EXPECT_LT(node, 6u);
  }
}

TEST(SampleDistinctNodes, FullPermutationWhenCountEqualsNodes) {
  Rng rng(2);
  ShapeScratch scratch;
  sample_distinct_nodes_into(5, 5, rng, scratch);
  std::set<dsrt::core::NodeId> unique(scratch.sites.begin(),
                                      scratch.sites.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(SampleDistinctNodes, RejectsOversizedRequest) {
  Rng rng(3);
  ShapeScratch scratch;
  EXPECT_THROW(sample_distinct_nodes_into(3, 4, rng, scratch),
               std::invalid_argument);
}

/// Dense reference partial Fisher-Yates: the O(n) algorithm the sparse
/// PartialShuffle replays (identity permutation, draw i swaps position i
/// with i + below(n - i), the sample is the prefix).
std::vector<std::uint64_t> dense_partial_shuffle(std::uint64_t n,
                                                 std::uint64_t count,
                                                 Rng& rng) {
  std::vector<std::uint64_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::uint64_t{0});
  for (std::uint64_t i = 0; i < count; ++i)
    std::swap(idx[i], idx[i + rng.below(n - i)]);
  idx.resize(count);
  return idx;
}

TEST(PartialShuffle, MatchesDenseFisherYatesDrawForDraw) {
  // Random (n, count) pairs, including count == n, count == 0 and n far
  // larger than count: same sample, in the same order, and the rng left in
  // the same state (the next raw draws agree).
  Rng pick(20261017);
  dsrt::sim::PartialShuffle shuffle;  // reused: stale map entries must not leak
  for (int trial = 0; trial < 2000; ++trial) {
    const std::uint64_t n =
        1 + pick.below(trial % 3 == 0 ? 8 : trial % 3 == 1 ? 300 : 5000);
    const std::uint64_t count =
        trial % 7 == 0 ? n : pick.below(std::min<std::uint64_t>(n, 40) + 1);
    const std::uint64_t seed = pick();
    Rng dense_rng(seed), sparse_rng(seed);
    const auto want = dense_partial_shuffle(n, count, dense_rng);
    shuffle.reset(n, count);
    std::vector<std::uint64_t> got;
    for (std::uint64_t i = 0; i < count; ++i)
      got.push_back(shuffle.next(sparse_rng));
    ASSERT_EQ(got, want) << "n=" << n << " count=" << count;
    for (int k = 0; k < 4; ++k) ASSERT_EQ(sparse_rng(), dense_rng());
  }
  shuffle.reset(4, 1);
  Rng rng(1);
  shuffle.next(rng);
  EXPECT_THROW(shuffle.next(rng), std::logic_error);
}

TEST(SampleDistinctNodes, MatchesDenseFisherYatesDrawForDraw) {
  Rng pick(77);
  ShapeScratch scratch;
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t nodes = 1 + pick.below(trial % 2 ? 12 : 4096);
    const std::size_t count = pick.below(std::min<std::size_t>(nodes, 16) + 1);
    const std::uint64_t seed = pick();
    Rng dense_rng(seed), sparse_rng(seed);
    const auto want = dense_partial_shuffle(nodes, count, dense_rng);
    sample_distinct_nodes_into(nodes, count, sparse_rng, scratch);
    ASSERT_EQ(scratch.sites.size(), count);
    for (std::size_t i = 0; i < count; ++i)
      ASSERT_EQ(scratch.sites[i], want[i]) << "nodes=" << nodes;
    for (int k = 0; k < 4; ++k) ASSERT_EQ(sparse_rng(), dense_rng());
  }
}

TEST(SampleDistinctNodes, RoughlyUniformFirstPosition) {
  Rng rng(4);
  ShapeScratch scratch;
  std::vector<int> counts(6, 0);
  const int n = 60000;
  for (int i = 0; i < n; ++i) {
    sample_distinct_nodes_into(6, 1, rng, scratch);
    ++counts[scratch.sites[0]];
  }
  for (int c : counts) EXPECT_NEAR(c, n / 6, n / 60);
}

TEST(Shapes, SerialTaskStructure) {
  Rng rng(5);
  const auto exec = dsrt::sim::exponential(1.0);
  const auto perfect = make_perfect_prediction();
  TaskSpec task;
  TaskSpecBuilder b;
  b.reset(task);
  fill_serial_task(b, 4, 6, *exec, *perfect, rng, false);
  b.finish();
  EXPECT_EQ(task.vertex(0).kind, SpecKind::Serial);
  EXPECT_EQ(task.leaf_count(), 4u);
  for (const auto c : task.children_of(task.vertex(0))) {
    const SpecVertex& child = task.vertex(c);
    EXPECT_EQ(child.kind, SpecKind::Simple);
    EXPECT_LT(child.node, 6u);
    EXPECT_DOUBLE_EQ(child.pex, child.exec);  // perfect prediction
  }
}

TEST(Shapes, ParallelTaskUsesDistinctNodes) {
  Rng rng(6);
  const auto exec = dsrt::sim::exponential(1.0);
  const auto perfect = make_perfect_prediction();
  TaskSpec task;
  TaskSpecBuilder b;
  ShapeScratch scratch;
  for (int trial = 0; trial < 100; ++trial) {
    b.reset(task);
    fill_parallel_task(b, 4, 6, *exec, *perfect, rng, false, scratch);
    b.finish();
    EXPECT_EQ(task.vertex(0).kind, SpecKind::Parallel);
    std::set<dsrt::core::NodeId> nodes;
    for (const auto c : task.children_of(task.vertex(0)))
      nodes.insert(task.vertex(c).node);
    EXPECT_EQ(nodes.size(), 4u) << "subtasks must land on distinct nodes";
  }
}

TEST(Shapes, SerialTaskTotalExecIsErlangLike) {
  // Sum of m iid Exp(1) has mean m and variance m (m-stage Erlang); for a
  // serial chain the critical path is the total work.
  Rng rng(7);
  const auto exec = dsrt::sim::exponential(1.0);
  const auto perfect = make_perfect_prediction();
  TaskSpec task;
  TaskSpecBuilder b;
  dsrt::stats::Tally t;
  for (int i = 0; i < 40000; ++i) {
    b.reset(task);
    fill_serial_task(b, 4, 6, *exec, *perfect, rng, false);
    b.finish();
    t.add(task.critical_path_exec());
  }
  EXPECT_NEAR(t.mean(), 4.0, 0.05);
  EXPECT_NEAR(t.variance(), 4.0, 0.2);
}

TEST(Shapes, RejectsDegenerateRequests) {
  Rng rng(8);
  const auto exec = dsrt::sim::exponential(1.0);
  const auto perfect = make_perfect_prediction();
  TaskSpec task;
  TaskSpecBuilder b;
  ShapeScratch scratch;
  b.reset(task);
  EXPECT_THROW(fill_serial_task(b, 0, 6, *exec, *perfect, rng, false),
               std::invalid_argument);
  EXPECT_THROW(fill_serial_task(b, 2, 0, *exec, *perfect, rng, false),
               std::invalid_argument);
  EXPECT_THROW(
      fill_parallel_task(b, 0, 6, *exec, *perfect, rng, false, scratch),
      std::invalid_argument);
  EXPECT_THROW(
      fill_parallel_task(b, 7, 6, *exec, *perfect, rng, false, scratch),
      std::invalid_argument);
}

TEST(Shapes, SerialParallelRespectsShape) {
  Rng rng(9);
  const auto exec = dsrt::sim::exponential(1.0);
  const auto perfect = make_perfect_prediction();
  SerialParallelShape shape;
  shape.stages = 5;
  shape.parallel_prob = 1.0;  // every stage parallel
  shape.parallel_width = 3;
  TaskSpec task;
  TaskSpecBuilder b;
  ShapeScratch scratch;
  b.reset(task);
  fill_serial_parallel_task(b, shape, 6, *exec, *perfect, rng, false,
                            scratch);
  b.finish();
  EXPECT_EQ(task.vertex(0).kind, SpecKind::Serial);
  const auto stages = task.children_of(task.vertex(0));
  ASSERT_EQ(stages.size(), 5u);
  for (const auto s : stages) {
    EXPECT_EQ(task.vertex(s).kind, SpecKind::Parallel);
    EXPECT_EQ(task.vertex(s).child_count, 3u);
  }
  EXPECT_EQ(task.leaf_count(), 15u);
}

TEST(Shapes, SerialParallelAllSimpleWhenProbZero) {
  Rng rng(10);
  const auto exec = dsrt::sim::exponential(1.0);
  const auto perfect = make_perfect_prediction();
  SerialParallelShape shape;
  shape.stages = 4;
  shape.parallel_prob = 0.0;
  shape.parallel_width = 3;
  TaskSpec task;
  TaskSpecBuilder b;
  ShapeScratch scratch;
  b.reset(task);
  fill_serial_parallel_task(b, shape, 6, *exec, *perfect, rng, false,
                            scratch);
  b.finish();
  for (const auto s : task.children_of(task.vertex(0)))
    EXPECT_EQ(task.vertex(s).kind, SpecKind::Simple);
}

TEST(Shapes, ExpectedLeavesFormula) {
  SerialParallelShape shape;
  shape.stages = 3;
  shape.parallel_prob = 0.5;
  shape.parallel_width = 3;
  // 3 * (0.5*3 + 0.5*1) = 6.
  EXPECT_DOUBLE_EQ(shape.expected_leaves(), 6.0);
}

TEST(Shapes, ExpectedLeavesMatchesEmpirical) {
  Rng rng(11);
  const auto exec = dsrt::sim::exponential(1.0);
  const auto perfect = make_perfect_prediction();
  SerialParallelShape shape;
  shape.stages = 3;
  shape.parallel_prob = 0.5;
  shape.parallel_width = 3;
  TaskSpec task;
  TaskSpecBuilder b;
  ShapeScratch scratch;
  dsrt::stats::Tally t;
  for (int i = 0; i < 20000; ++i) {
    b.reset(task);
    fill_serial_parallel_task(b, shape, 6, *exec, *perfect, rng, false,
                              scratch);
    b.finish();
    t.add(static_cast<double>(task.leaf_count()));
  }
  EXPECT_NEAR(t.mean(), shape.expected_leaves(), 0.05);
}

TEST(Shapes, HarmonicNumbers) {
  EXPECT_DOUBLE_EQ(harmonic(1), 1.0);
  EXPECT_DOUBLE_EQ(harmonic(2), 1.5);
  EXPECT_NEAR(harmonic(4), 25.0 / 12.0, 1e-12);
}

TEST(Shapes, ExpectedCriticalPathFormula) {
  SerialParallelShape shape;
  shape.stages = 2;
  shape.parallel_prob = 1.0;
  shape.parallel_width = 4;
  // 2 stages * E[max of 4 Exp(1)] = 2 * H_4.
  EXPECT_NEAR(shape.expected_critical_path(1.0), 2 * harmonic(4), 1e-12);
}

TEST(PexError, PerfectIsIdentity) {
  Rng rng(12);
  const auto m = make_perfect_prediction();
  EXPECT_DOUBLE_EQ(m->predict(3.7, rng), 3.7);
}

TEST(PexError, UniformRelativeStaysInBand) {
  Rng rng(13);
  const auto m = make_uniform_relative_error(0.5);
  for (int i = 0; i < 5000; ++i) {
    const double p = m->predict(2.0, rng);
    EXPECT_GE(p, 1.0);
    EXPECT_LE(p, 3.0);
  }
}

TEST(PexError, UniformRelativeIsUnbiased) {
  Rng rng(14);
  const auto m = make_uniform_relative_error(0.5);
  dsrt::stats::Tally t;
  for (int i = 0; i < 100000; ++i) t.add(m->predict(2.0, rng));
  EXPECT_NEAR(t.mean(), 2.0, 0.01);
}

TEST(PexError, UniformRelativeClampsAtZero) {
  Rng rng(15);
  const auto m = make_uniform_relative_error(2.0);  // factor in [-1, 3]
  for (int i = 0; i < 5000; ++i) EXPECT_GE(m->predict(1.0, rng), 0.0);
}

TEST(PexError, ScaledAppliesBias) {
  Rng rng(16);
  EXPECT_DOUBLE_EQ(make_scaled_prediction(0.5)->predict(4.0, rng), 2.0);
  EXPECT_DOUBLE_EQ(make_scaled_prediction(2.0)->predict(4.0, rng), 8.0);
}

TEST(PexError, DistributionOnlyIgnoresActual) {
  Rng rng(17);
  const auto m = make_distribution_only(dsrt::sim::constant(1.5));
  EXPECT_DOUBLE_EQ(m->predict(100.0, rng), 1.5);
  EXPECT_DOUBLE_EQ(m->predict(0.001, rng), 1.5);
}

TEST(PexError, RejectsBadArguments) {
  EXPECT_THROW(make_uniform_relative_error(-0.1), std::invalid_argument);
  EXPECT_THROW(make_scaled_prediction(-1.0), std::invalid_argument);
  EXPECT_THROW(make_distribution_only(nullptr), std::invalid_argument);
}

}  // namespace

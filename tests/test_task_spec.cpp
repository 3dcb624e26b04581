// Unit tests for the task attributes (Section 3.1) and the flat
// serial-parallel task specs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "dsrt/core/task.hpp"
#include "dsrt/core/task_spec.hpp"
#include "support/spec.hpp"

namespace {

using namespace dsrt::core;
using dsrt::testing::spec_of;

TEST(TaskAttributes, DeadlineIdentity) {
  // dl(X) = ar(X) + ex(X) + sl(X).
  const auto a = TaskAttributes::from_slack(/*arrival=*/10.0, /*exec=*/3.0,
                                            /*slack=*/2.0);
  EXPECT_DOUBLE_EQ(a.deadline, 15.0);
  EXPECT_DOUBLE_EQ(a.slack(), 2.0);
  EXPECT_DOUBLE_EQ(a.predicted_exec, 3.0);
}

TEST(TaskAttributes, Flexibility) {
  // fl(X) = sl(X)/ex(X).
  const auto a = TaskAttributes::from_slack(0.0, 4.0, 2.0);
  EXPECT_DOUBLE_EQ(a.flexibility(), 0.5);
}

TEST(TaskAttributes, FlexibilityZeroExec) {
  TaskAttributes a;
  a.arrival = 0;
  a.exec = 0;
  a.deadline = 1;  // slack 1, exec 0
  EXPECT_TRUE(std::isinf(a.flexibility()));
  a.deadline = 0;
  EXPECT_DOUBLE_EQ(a.flexibility(), 0.0);
}

TEST(TaskSpec, SimpleLeaf) {
  const auto leaf = spec_of("2/1.8@3");
  ASSERT_EQ(leaf.size(), 1u);
  const SpecVertex& vx = leaf.vertex(0);
  EXPECT_EQ(vx.kind, SpecKind::Simple);
  EXPECT_EQ(vx.node, 3u);
  EXPECT_DOUBLE_EQ(vx.exec, 2.0);
  EXPECT_DOUBLE_EQ(vx.pex, 1.8);
  EXPECT_EQ(vx.parent, -1);
  EXPECT_TRUE(leaf.eligible_of(vx).empty());
  EXPECT_DOUBLE_EQ(leaf.predicted_duration(), 1.8);
  EXPECT_DOUBLE_EQ(leaf.critical_path_exec(), 2.0);
  EXPECT_EQ(leaf.leaf_count(), 1u);
}

TEST(TaskSpec, RejectsNegativeTimes) {
  TaskSpec spec;
  TaskSpecBuilder b;
  b.reset(spec);
  EXPECT_THROW(b.leaf(0, -1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(b.leaf(0, 1.0, -0.5), std::invalid_argument);
}

TEST(TaskSpec, RejectsEmptyCompositions) {
  TaskSpec spec;
  TaskSpecBuilder b;
  for (const bool serial : {true, false}) {
    b.reset(spec);
    serial ? b.begin_serial() : b.begin_parallel();
    EXPECT_THROW(b.end(), std::invalid_argument);
  }
  EXPECT_THROW(spec_of("S()"), std::invalid_argument);
  EXPECT_THROW(spec_of("P()"), std::invalid_argument);
}

TEST(TaskSpec, WholeTaskReadersThrowOnAnEmptySpec) {
  const TaskSpec empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_THROW(empty.predicted_duration(), std::logic_error);
  EXPECT_THROW(empty.critical_path_exec(), std::logic_error);
  EXPECT_THROW(empty.to_string(), std::logic_error);
  EXPECT_EQ(empty.leaf_count(), 0u);
}

TEST(TaskSpec, SerialAggregation) {
  // T = [T1 T2 T3]: duration sums.
  const auto t = spec_of("S(1/1@0 2/2@1 3/3@2)");
  EXPECT_EQ(t.vertex(0).kind, SpecKind::Serial);
  const auto kids = t.children_of(t.vertex(0));
  EXPECT_EQ(std::vector<std::uint32_t>(kids.begin(), kids.end()),
            (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(t.predicted_duration(), 6.0);
  EXPECT_DOUBLE_EQ(t.critical_path_exec(), 6.0);
  EXPECT_EQ(t.leaf_count(), 3u);
}

TEST(TaskSpec, ParallelAggregation) {
  // T = [T1 || T2 || T3]: duration is the max.
  const auto t = spec_of("P(1/1@0 5/5@1 3/3@2)");
  EXPECT_EQ(t.vertex(0).kind, SpecKind::Parallel);
  EXPECT_DOUBLE_EQ(t.predicted_duration(), 5.0);
  EXPECT_DOUBLE_EQ(t.critical_path_exec(), 5.0);
  EXPECT_EQ(t.leaf_count(), 3u);
}

TEST(TaskSpec, NestedSerialParallel) {
  // T = [A [B || C] D] with A=1, B=2, C=4, D=1. Pre-order: root 0, A 1,
  // group 2, B 3, C 4, D 5.
  const auto t = spec_of("S(1/1@0 P(2/2@1 4/4@2) 1/1@0)");
  EXPECT_DOUBLE_EQ(t.critical_path_exec(), 6.0);  // 1 + max(2,4) + 1
  EXPECT_EQ(t.leaf_count(), 4u);
  ASSERT_EQ(t.size(), 6u);
  const SpecVertex& group = t.vertex(2);
  EXPECT_EQ(group.kind, SpecKind::Parallel);
  EXPECT_EQ(group.parent, 0);
  EXPECT_EQ(group.index_in_parent, 1u);
  EXPECT_DOUBLE_EQ(group.pred_duration, 4.0);
  EXPECT_EQ(t.vertex(4).parent, 2);
  EXPECT_EQ(t.vertex(4).index_in_parent, 1u);
  EXPECT_EQ(t.vertex(5).parent, 0);
  EXPECT_EQ(t.to_string(), "[T@0 [T@1 || T@2] T@0]");
}

TEST(TaskSpec, PexDivergesFromExecInAggregates) {
  // Predicted durations use pex, critical path uses ex.
  const auto t = spec_of("S(2/1@0 2/1.5@1)");
  EXPECT_DOUBLE_EQ(t.predicted_duration(), 2.5);
  EXPECT_DOUBLE_EQ(t.critical_path_exec(), 4.0);
}

TEST(TaskSpec, DeepNesting) {
  // [[...[[T T] T]... T] T], 20 serial groups deep: the groups form the
  // pre-order spine 0..19 and the innermost pair of leaves hangs off 19.
  TaskSpec t;
  TaskSpecBuilder b;
  b.reset(t);
  for (int i = 0; i < 20; ++i) b.begin_serial();
  b.leaf(0, 1.0, 1.0);
  for (int i = 0; i < 20; ++i) {
    b.leaf(0, 1.0, 1.0);
    b.end();
  }
  b.finish();
  EXPECT_EQ(t.leaf_count(), 21u);
  EXPECT_DOUBLE_EQ(t.critical_path_exec(), 21.0);
  for (std::size_t v = 1; v <= 20; ++v)
    EXPECT_EQ(t.vertex(v).parent, static_cast<std::int32_t>(v - 1)) << v;
}

}  // namespace

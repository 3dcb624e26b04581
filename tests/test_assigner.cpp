// Tests for TaskInstance — the runtime engine that decomposes an
// end-to-end deadline over a serial-parallel tree (Sections 4-6).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "dsrt/core/assigner.hpp"
#include "dsrt/core/parallel_strategies.hpp"
#include "dsrt/core/serial_strategies.hpp"
#include "support/spec.hpp"

namespace {

using namespace dsrt::core;
using dsrt::testing::spec_of;

std::vector<LeafSubmission> start(TaskInstance& inst, double now = 0) {
  std::vector<LeafSubmission> out;
  inst.start(now, out);
  return out;
}

TEST(TaskInstance, SerialChainSubmitsOneAtATime) {
  const auto spec = spec_of("S(2/2@0 1/1@1 4/4@2)");
  TaskInstance inst(1, spec, 0.0, 20.0, make_eqf(), make_parallel_ud());
  auto subs = start(inst);
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_EQ(subs[0].node, 0u);
  EXPECT_EQ(inst.outstanding(), 1u);
  EXPECT_EQ(inst.state(), InstanceState::Running);

  std::vector<LeafSubmission> next;
  EXPECT_FALSE(inst.on_leaf_complete(subs[0].leaf, 2.0, next));
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].node, 1u);

  std::vector<LeafSubmission> third;
  EXPECT_FALSE(inst.on_leaf_complete(next[0].leaf, 3.0, third));
  ASSERT_EQ(third.size(), 1u);
  EXPECT_EQ(third[0].node, 2u);

  std::vector<LeafSubmission> done;
  EXPECT_TRUE(inst.on_leaf_complete(third[0].leaf, 7.0, done));
  EXPECT_TRUE(done.empty());
  EXPECT_EQ(inst.state(), InstanceState::Completed);
  EXPECT_TRUE(inst.drained());
}

TEST(TaskInstance, SerialDeadlinesRecomputedAtSubmission) {
  // EQS with pex (2,1,4,1), dl(T)=16: stage 1 gets dl 4. If stage 1
  // finishes EARLY at t=2, stage 2's deadline uses the inherited slack:
  // 2 + 1 + (16-2-6)/3 = 5.667 (not the on-time 7.0).
  const auto spec = spec_of("S(2/2@0 1/1@1 4/4@2 1/1@3)");
  TaskInstance inst(1, spec, 0.0, 16.0, make_eqs(), make_parallel_ud());
  auto subs = start(inst);
  EXPECT_DOUBLE_EQ(subs[0].deadline, 4.0);

  std::vector<LeafSubmission> next;
  inst.on_leaf_complete(subs[0].leaf, 2.0, next);
  ASSERT_EQ(next.size(), 1u);
  EXPECT_NEAR(next[0].deadline, 2.0 + 1.0 + (16.0 - 2.0 - 6.0) / 3.0, 1e-12);
}

TEST(TaskInstance, LateStageRobsFollowers) {
  // "The poor get poorer": stage 1 finishing LATE (t=6) leaves stage 2
  // with slack (16-6-6)/3 = 4/3 instead of 2.
  const auto spec = spec_of("S(2/2@0 1/1@1 4/4@2 1/1@3)");
  TaskInstance inst(1, spec, 0.0, 16.0, make_eqs(), make_parallel_ud());
  auto subs = start(inst);
  std::vector<LeafSubmission> next;
  inst.on_leaf_complete(subs[0].leaf, 6.0, next);
  EXPECT_NEAR(next[0].deadline, 6.0 + 1.0 + 4.0 / 3.0, 1e-12);
}

TEST(TaskInstance, ParallelFanOutSubmitsAllAtOnce) {
  const auto spec = spec_of("P(1/1@0 2/2@1 3/3@2)");
  TaskInstance inst(1, spec, 5.0, 15.0, make_ud(), make_div_x(1.0));
  auto subs = start(inst, 5.0);
  ASSERT_EQ(subs.size(), 3u);
  EXPECT_EQ(inst.outstanding(), 3u);
  // DIV-1 with window 10, n=3: dl = 5 + 10/3.
  for (const auto& sub : subs)
    EXPECT_NEAR(sub.deadline, 5.0 + 10.0 / 3.0, 1e-12);
}

TEST(TaskInstance, ParallelJoinWaitsForAll) {
  const auto spec = spec_of("P(1/1@0 2/2@1 3/3@2)");
  TaskInstance inst(1, spec, 0.0, 10.0, make_ud(), make_parallel_ud());
  auto subs = start(inst);
  std::vector<LeafSubmission> out;
  EXPECT_FALSE(inst.on_leaf_complete(subs[0].leaf, 1.0, out));
  EXPECT_FALSE(inst.on_leaf_complete(subs[2].leaf, 3.0, out));
  EXPECT_EQ(inst.state(), InstanceState::Running);
  EXPECT_TRUE(inst.on_leaf_complete(subs[1].leaf, 4.0, out));
  EXPECT_EQ(inst.state(), InstanceState::Completed);
}

TEST(TaskInstance, GlobalsFirstElevatesAllLeaves) {
  const auto spec = spec_of("P(1/1@0 1/1@1)");
  TaskInstance inst(1, spec, 0.0, 10.0, make_ud(), make_gf());
  for (const auto& sub : start(inst))
    EXPECT_EQ(sub.priority, PriorityClass::Elevated);
}

TEST(TaskInstance, NestedRecursionAppliesSspThenPsp) {
  // T = [A [B || C] D], dl(T) = 20, EQS + DIV-1, all pex = 2 (parallel
  // group pex = max = 2, so group total pex = 6).
  const auto spec = spec_of("S(2/2@0 P(2/2@1 2/2@2) 2/2@3)");
  TaskInstance inst(1, spec, 0.0, 20.0, make_eqs(), make_div_x(1.0));
  // Stage A: slack = 20 - 0 - 6 = 14 over 3 stages -> dl(A) = 0+2+14/3.
  auto subs = start(inst);
  ASSERT_EQ(subs.size(), 1u);
  const double dl_a = 2.0 + 14.0 / 3.0;
  EXPECT_NEAR(subs[0].deadline, dl_a, 1e-12);

  // A finishes exactly at dl(A). Serial gives the parallel stage
  // dl_group = dl_a + 2 + (20 - dl_a - 4)/2; PSP DIV-1 then divides the
  // group's window by n=2.
  std::vector<LeafSubmission> group;
  inst.on_leaf_complete(subs[0].leaf, dl_a, group);
  ASSERT_EQ(group.size(), 2u);
  const double dl_group = dl_a + 2.0 + (20.0 - dl_a - 4.0) / 2.0;
  const double dl_member = dl_a + (dl_group - dl_a) / 2.0;
  EXPECT_NEAR(group[0].deadline, dl_member, 1e-12);
  EXPECT_NEAR(group[1].deadline, dl_member, 1e-12);
  // The parallel vertex itself recorded its virtual deadline (vertex 2 in
  // pre-order: root=0, A=1, group=2, B=3, C=4, D=5).
  EXPECT_NEAR(inst.vertex_deadline(2), dl_group, 1e-12);

  // Group members finish; D inherits from the serial root.
  std::vector<LeafSubmission> rest;
  inst.on_leaf_complete(group[0].leaf, dl_group - 1.0, rest);
  EXPECT_TRUE(rest.empty());
  inst.on_leaf_complete(group[1].leaf, dl_group, rest);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].node, 3u);
  // Last serial stage: full remaining window -> dl(T).
  EXPECT_NEAR(rest[0].deadline, 20.0, 1e-12);

  std::vector<LeafSubmission> done;
  EXPECT_TRUE(inst.on_leaf_complete(rest[0].leaf, 19.0, done));
}

TEST(TaskInstance, SingleLeafRoot) {
  const auto spec = spec_of("3/3@2");
  TaskInstance inst(9, spec, 1.0, 8.0, make_eqf(), make_parallel_ud());
  auto subs = start(inst, 1.0);
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_DOUBLE_EQ(subs[0].deadline, 8.0);
  std::vector<LeafSubmission> out;
  EXPECT_TRUE(inst.on_leaf_complete(subs[0].leaf, 4.0, out));
}

TEST(TaskInstance, AbortStopsFurtherSubmissions) {
  const auto spec = spec_of("S(1/1@0 1/1@1)");
  TaskInstance inst(1, spec, 0.0, 10.0, make_ud(), make_parallel_ud());
  auto subs = start(inst);
  inst.abort();
  EXPECT_EQ(inst.state(), InstanceState::Aborted);
  EXPECT_FALSE(inst.drained());  // first leaf still outstanding
  std::vector<LeafSubmission> out;
  EXPECT_FALSE(inst.on_leaf_complete(subs[0].leaf, 1.0, out));
  EXPECT_TRUE(out.empty());  // no follow-on work
  EXPECT_TRUE(inst.drained());
}

TEST(TaskInstance, AbortAfterCompletionIsNoOp) {
  const auto spec = spec_of("1/1@0");
  TaskInstance inst(1, spec, 0.0, 5.0, make_ud(), make_parallel_ud());
  auto subs = start(inst);
  std::vector<LeafSubmission> out;
  inst.on_leaf_complete(subs[0].leaf, 1.0, out);
  inst.abort();
  EXPECT_EQ(inst.state(), InstanceState::Completed);
}

TEST(TaskInstance, DoubleStartThrows) {
  const auto spec = spec_of("1/1@0");
  TaskInstance inst(1, spec, 0.0, 5.0, make_ud(), make_parallel_ud());
  std::vector<LeafSubmission> out;
  inst.start(0.0, out);
  EXPECT_THROW(inst.start(0.0, out), std::logic_error);
}

TEST(TaskInstance, RejectsBadCompletions) {
  const auto spec = spec_of("S(1/1@0 1/1@1)");
  TaskInstance inst(1, spec, 0.0, 10.0, make_ud(), make_parallel_ud());
  std::vector<LeafSubmission> out;
  inst.start(0.0, out);
  EXPECT_THROW(inst.on_leaf_complete(0, 1.0, out), std::invalid_argument)
      << "vertex 0 is the serial root, not a leaf";
  EXPECT_THROW(inst.on_leaf_complete(99, 1.0, out), std::invalid_argument);
}

TEST(TaskInstance, RejectsNullStrategies) {
  const auto spec = spec_of("1/1@0");
  EXPECT_THROW(TaskInstance(1, spec, 0, 1, nullptr, make_parallel_ud()),
               std::invalid_argument);
  EXPECT_THROW(TaskInstance(1, spec, 0, 1, make_ud(), nullptr),
               std::invalid_argument);
}

TEST(TaskInstance, VertexDeadlineUnsetBeforeActivation) {
  const auto spec = spec_of("S(1/1@0 1/1@1)");
  TaskInstance inst(1, spec, 0.0, 10.0, make_eqs(), make_parallel_ud());
  std::vector<LeafSubmission> out;
  inst.start(0.0, out);
  // Pre-order: root 0, first leaf 1, second leaf 2 (not yet activated).
  EXPECT_DOUBLE_EQ(inst.vertex_deadline(0), 10.0);
  EXPECT_LT(inst.vertex_deadline(1), 10.0);
  EXPECT_EQ(inst.vertex_deadline(2), dsrt::sim::kTimeInfinity);
  EXPECT_THROW(inst.vertex_deadline(100), std::out_of_range);
  EXPECT_EQ(inst.vertex_count(), 3u);
}

TEST(TaskInstance, DeepTreeCompletesEndToEnd) {
  // [[A || B] [C [D || E]] F] exercises multi-level recursion.
  const auto spec = spec_of("S(P(1/1@0 1/1@1) S(1/1@2 P(1/1@3 1/1@4)) 1/1@5)");
  TaskInstance inst(1, spec, 0.0, 30.0, make_eqf(), make_div_x(1.0));
  std::vector<LeafSubmission> pending = start(inst);
  double now = 0;
  int completions = 0;
  bool done = false;
  while (!pending.empty()) {
    std::vector<LeafSubmission> next;
    for (const auto& sub : pending) {
      now += sub.exec;
      std::vector<LeafSubmission> out;
      done = inst.on_leaf_complete(sub.leaf, now, out);
      ++completions;
      next.insert(next.end(), out.begin(), out.end());
    }
    pending = std::move(next);
  }
  EXPECT_TRUE(done);
  EXPECT_EQ(completions, 6);
  EXPECT_EQ(inst.state(), InstanceState::Completed);
  EXPECT_TRUE(inst.drained());
}

}  // namespace

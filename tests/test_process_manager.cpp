// Tests for the process manager: precedence enforcement, miss accounting,
// abort cascades — driven through hand-built nodes on a real simulator.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "dsrt/core/parallel_strategies.hpp"
#include "dsrt/core/serial_strategies.hpp"
#include "dsrt/sched/node.hpp"
#include "dsrt/sim/simulator.hpp"
#include "dsrt/system/metrics.hpp"
#include "dsrt/system/process_manager.hpp"
#include "support/spec.hpp"

namespace {

using namespace dsrt;
using system::ProcessManager;
using system::RunMetrics;
using dsrt::testing::spec_of;

struct Fixture {
  sim::Simulator sim;
  std::vector<std::unique_ptr<sched::Node>> nodes;
  RunMetrics metrics;
  std::unique_ptr<ProcessManager> pm;

  explicit Fixture(std::size_t k = 3,
                   sched::AbortPolicyPtr abort = sched::make_no_abort(),
                   core::SerialStrategyPtr ssp = core::make_eqs(),
                   core::ParallelStrategyPtr psp = core::make_parallel_ud()) {
    for (std::size_t i = 0; i < k; ++i)
      nodes.push_back(std::make_unique<sched::Node>(
          static_cast<core::NodeId>(i), sim, sched::make_edf(), abort));
    pm = std::make_unique<ProcessManager>(sim, nodes, std::move(ssp),
                                          std::move(psp), metrics);
  }
};

TEST(ProcessManager, LocalTaskAccounting) {
  Fixture f;
  f.pm->submit_local(0, /*exec=*/2.0, /*pex=*/2.0, /*deadline=*/5.0);  // met
  f.pm->submit_local(1, 3.0, 3.0, 1.0);                                // missed
  f.sim.run();
  EXPECT_EQ(f.metrics.local.generated, 2u);
  EXPECT_EQ(f.metrics.local.missed.trials(), 2u);
  EXPECT_EQ(f.metrics.local.missed.hits(), 1u);
  EXPECT_DOUBLE_EQ(f.metrics.local.response.mean(), 2.5);
  EXPECT_DOUBLE_EQ(f.metrics.local.tardiness.max(), 2.0);  // 3.0 - 1.0
}

TEST(ProcessManager, RejectsBadNode) {
  Fixture f;
  EXPECT_THROW(f.pm->submit_local(99, 1, 1, 5), std::out_of_range);
}

TEST(ProcessManager, SerialPrecedenceAcrossNodes) {
  // Three-stage serial task on nodes 0,1,2; each stage takes 1. Node 1 is
  // busy until t=5, so stage 2 waits — stage 3 must not start before it.
  Fixture f;
  f.pm->submit_local(1, 5.0, 5.0, 100.0);  // blocks node 1
  const auto spec = spec_of("S(1/1@0 1/1@1 1/1@2)");
  f.pm->submit_global(spec, /*deadline=*/20.0);
  f.sim.run();
  EXPECT_EQ(f.metrics.global.missed.trials(), 1u);
  EXPECT_EQ(f.metrics.global.missed.hits(), 0u);
  // Stage 1 done t=1; stage 2 waits for node 1 until 5, done 6; stage 3
  // done 7 -> response 7.
  EXPECT_DOUBLE_EQ(f.metrics.global.response.mean(), 7.0);
}

TEST(ProcessManager, ParallelJoinResponseIsMax) {
  Fixture f;
  const auto spec = spec_of("P(1/1@0 4/4@1 2/2@2)");
  f.pm->submit_global(spec, 10.0);
  f.sim.run();
  EXPECT_DOUBLE_EQ(f.metrics.global.response.mean(), 4.0);
  EXPECT_EQ(f.metrics.global.missed.hits(), 0u);
}

TEST(ProcessManager, GlobalMissedWhenLate) {
  Fixture f;
  const auto spec = spec_of("S(2/2@0 2/2@1)");
  f.pm->submit_global(spec, /*deadline=*/3.0);  // needs 4
  f.sim.run();
  EXPECT_EQ(f.metrics.global.missed.hits(), 1u);
  EXPECT_DOUBLE_EQ(f.metrics.global.lateness.mean(), 1.0);
}

TEST(ProcessManager, InstanceCleanupAfterCompletion) {
  Fixture f;
  f.pm->submit_global(spec_of("1/1@0"), 5.0);
  EXPECT_EQ(f.pm->live_instances(), 1u);
  f.sim.run();
  EXPECT_EQ(f.pm->live_instances(), 0u);
}

TEST(ProcessManager, AbortedSubtaskDoomsGlobalTask) {
  // Firm deadlines: the first subtask's virtual deadline passes while a
  // local hog runs, so it is discarded at dispatch; the global task counts
  // as missed, the second stage is never submitted.
  Fixture f(3, sched::make_abort_tardy(), core::make_eqs(),
            core::make_parallel_ud());
  f.pm->submit_local(0, 10.0, 10.0, 100.0);  // hog node 0 until t=10
  const auto spec = spec_of("S(1/1@0 1/1@1)");
  f.pm->submit_global(spec, /*deadline=*/4.0);  // stage-1 dl < 10 under EQS
  f.sim.run();
  EXPECT_EQ(f.metrics.global.missed.trials(), 1u);
  EXPECT_EQ(f.metrics.global.missed.hits(), 1u);
  EXPECT_EQ(f.metrics.global.aborted, 1u);
  EXPECT_EQ(f.pm->live_instances(), 0u);
  // Node 1 never saw the second stage.
  EXPECT_EQ(f.nodes[1]->jobs_submitted(), 0u);
}

TEST(ProcessManager, AbortedParallelSiblingDrainsQuietly) {
  // One member of a parallel pair is discarded; the sibling is already
  // queued and completes later, but the task is recorded missed exactly
  // once and the instance drains away.
  Fixture f(2, sched::make_abort_tardy(), core::make_eqs(),
            core::make_parallel_ud());
  f.pm->submit_local(0, 10.0, 10.0, 100.0);  // hog node 0
  const auto spec = spec_of("P(1/1@0 1/1@1)");
  f.pm->submit_global(spec, /*deadline=*/4.0);
  f.sim.run();
  EXPECT_EQ(f.metrics.global.missed.trials(), 1u);
  EXPECT_EQ(f.metrics.global.missed.hits(), 1u);
  EXPECT_EQ(f.pm->live_instances(), 0u);
}

TEST(ProcessManager, MixedWorkloadKeepsClassesSeparate) {
  Fixture f;
  f.pm->submit_local(0, 1.0, 1.0, 10.0);
  f.pm->submit_global(spec_of("1/1@1"), 10.0);
  f.sim.run();
  EXPECT_EQ(f.metrics.local.missed.trials(), 1u);
  EXPECT_EQ(f.metrics.global.missed.trials(), 1u);
  EXPECT_EQ(f.metrics.local_wait.count(), 1u);
  EXPECT_EQ(f.metrics.subtask_wait.count(), 1u);
}

TEST(ProcessManager, SubtaskWaitMeasuresQueueingOnly) {
  Fixture f;
  f.pm->submit_local(0, 2.0, 2.0, 100.0);  // busy until 2
  f.pm->submit_global(spec_of("1/1@0"), 100.0);
  f.sim.run();
  // Subtask waited 2, served 1.
  EXPECT_DOUBLE_EQ(f.metrics.subtask_wait.mean(), 2.0);
}

}  // namespace

// Tests for the network-as-nodes feature (Section 3.2) and periodic global
// arrivals.
#include <gtest/gtest.h>

#include "dsrt/core/serial_strategies.hpp"
#include "dsrt/sim/rng.hpp"
#include "dsrt/system/baseline.hpp"
#include "dsrt/system/simulation.hpp"
#include "dsrt/workload/shapes.hpp"

namespace {

using namespace dsrt;

TEST(CommShapes, InterleavesTransmissionStages) {
  sim::Rng rng(61);
  const auto exec = sim::exponential(1.0);
  const auto comm = sim::constant(0.25);
  const auto perfect = workload::make_perfect_prediction();
  core::TaskSpec task;
  core::TaskSpecBuilder b;
  b.reset(task);
  workload::fill_serial_task_with_comm(
      b, /*subtasks=*/4, /*nodes=*/6, /*link_nodes=*/2, *exec, *comm,
      *perfect, rng, /*defer_placement=*/false);
  b.finish();
  const auto stages = task.children_of(task.vertex(0));
  ASSERT_EQ(stages.size(), 7u);  // T C T C T C T
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const core::SpecVertex& child = task.vertex(stages[i]);
    ASSERT_EQ(child.kind, core::SpecKind::Simple);
    if (i % 2 == 1) {  // transmission stage
      EXPECT_GE(child.node, 6u);
      EXPECT_LT(child.node, 8u);
      EXPECT_DOUBLE_EQ(child.exec, 0.25);
    } else {
      EXPECT_LT(child.node, 6u);
    }
  }
}

TEST(CommShapes, SingleStageHasNoTransmission) {
  sim::Rng rng(62);
  const auto exec = sim::exponential(1.0);
  const auto comm = sim::constant(0.25);
  const auto perfect = workload::make_perfect_prediction();
  core::TaskSpec task;
  core::TaskSpecBuilder b;
  b.reset(task);
  workload::fill_serial_task_with_comm(b, 1, 6, 2, *exec, *comm, *perfect,
                                       rng, false);
  b.finish();
  EXPECT_EQ(task.vertex(0).child_count, 1u);
}

TEST(CommShapes, RejectsBadArguments) {
  sim::Rng rng(63);
  const auto exec = sim::exponential(1.0);
  const auto comm = sim::constant(0.25);
  const auto perfect = workload::make_perfect_prediction();
  core::TaskSpec task;
  core::TaskSpecBuilder b;
  b.reset(task);
  EXPECT_THROW(workload::fill_serial_task_with_comm(b, 0, 6, 2, *exec, *comm,
                                                    *perfect, rng, false),
               std::invalid_argument);
  EXPECT_THROW(workload::fill_serial_task_with_comm(b, 2, 6, 0, *exec, *comm,
                                                    *perfect, rng, false),
               std::invalid_argument);
}

TEST(CommConfig, CriticalPathIncludesHops) {
  system::Config cfg = system::baseline_ssp();
  cfg.link_nodes = 2;
  cfg.comm_exec = sim::constant(0.5);
  // m=4 compute stages (mean 1) + 3 hops (0.5): 5.5.
  EXPECT_DOUBLE_EQ(cfg.expected_critical_path(), 5.5);
  EXPECT_NO_THROW(cfg.validate());
}

TEST(CommConfig, ValidateRules) {
  system::Config cfg = system::baseline_ssp();
  cfg.link_nodes = 2;  // without comm_exec
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.comm_exec = sim::constant(0.1);
  EXPECT_NO_THROW(cfg.validate());
  cfg.shape = system::GlobalShape::Parallel;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(CommSimulation, LinkNodesCarryOnlyTransmissions) {
  system::Config cfg = system::baseline_ssp();
  cfg.horizon = 20000;
  cfg.link_nodes = 2;
  cfg.comm_exec = sim::exponential(0.2);
  system::SimulationRun run(cfg, 0);
  const auto metrics = run.run();
  ASSERT_EQ(run.nodes().size(), 8u);
  // Links see traffic and report a separate utilization.
  EXPECT_GT(run.nodes()[6]->jobs_submitted() +
                run.nodes()[7]->jobs_submitted(),
            100u);
  EXPECT_GT(metrics.mean_link_utilization, 0.0);
  EXPECT_LT(metrics.mean_link_utilization, metrics.mean_utilization);
  // Tasks still complete.
  EXPECT_GT(metrics.global.missed.trials(), 50u);
}

TEST(CommSimulation, HopsTradeQueueingForWindow) {
  // Adding hops has two opposed effects: more stages to queue through, but
  // a wider deadline window (slack scales with the critical path, which now
  // includes transmission). On lightly loaded links the two nearly cancel;
  // the system must stay in the same operating regime, not degenerate.
  system::Config base = system::baseline_ssp();
  base.horizon = 40000;
  const auto without = system::simulate(base);
  system::Config with = base;
  with.link_nodes = 2;
  with.comm_exec = sim::exponential(0.25);
  const auto with_comm = system::simulate(with);
  EXPECT_NEAR(with_comm.global.missed.value(), without.global.missed.value(),
              0.10);
  EXPECT_GT(with_comm.global.missed.trials(), 500u);
  // EQF must still beat UD with transmission stages in the chain.
  with.ssp = core::make_eqf();
  const auto with_eqf = system::simulate(with);
  EXPECT_LT(with_eqf.global.missed.value(), with_comm.global.missed.value());
}

TEST(AbortUltimateSystem, RescuesAggressiveVirtualDeadlines) {
  // Under virtual-deadline discard, DIV-1's early deadlines get its
  // subtasks thrown away even when the task could finish; discarding on
  // the ultimate deadline restores DIV-1 to (near) its NoAbort level.
  system::Config cfg = system::baseline_psp();
  cfg.horizon = 60000;
  cfg.psp = core::make_div_x(1.0);
  cfg.abort_policy = sched::make_abort_tardy();
  const auto virtual_discard = system::simulate(cfg);
  cfg.abort_policy = sched::make_abort_ultimate();
  const auto ultimate_discard = system::simulate(cfg);
  EXPECT_LT(ultimate_discard.global.missed.value(),
            0.6 * virtual_discard.global.missed.value());
}

TEST(PeriodicGlobals, DeterministicInterarrivals) {
  system::Config cfg = system::baseline_ssp();
  cfg.horizon = 20000;
  cfg.periodic_globals = true;
  const auto metrics = system::simulate(cfg);
  // Exactly floor(horizon * lambda) arrivals (first at one period).
  const auto expected = static_cast<std::uint64_t>(
      cfg.horizon * cfg.lambda_global());
  EXPECT_NEAR(static_cast<double>(metrics.global.generated),
              static_cast<double>(expected), 1.0);
}

TEST(PeriodicGlobals, SmoothArrivalsMissLessThanPoisson) {
  // Deterministic spacing removes arrival bursts; global misses should not
  // get worse than the Poisson case.
  system::Config cfg = system::baseline_ssp();
  cfg.horizon = 60000;
  cfg.load = 0.5;
  const auto poisson = system::simulate(cfg);
  cfg.periodic_globals = true;
  const auto periodic = system::simulate(cfg);
  EXPECT_LE(periodic.global.missed.value(),
            poisson.global.missed.value() + 0.02);
}

}  // namespace

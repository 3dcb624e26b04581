// Tests for the Poisson task sources: rates, payloads, horizon behavior.
#include <gtest/gtest.h>

#include <vector>

#include "dsrt/sim/simulator.hpp"
#include "dsrt/stats/tally.hpp"
#include "dsrt/system/baseline.hpp"
#include "dsrt/workload/generator.hpp"

namespace {

using namespace dsrt::workload;
using dsrt::sim::Rng;
using dsrt::sim::Simulator;

GlobalTaskParams serial_params() {
  GlobalTaskParams p;
  p.shape = GlobalShape::Serial;
  p.nodes = 6;
  p.subtasks = 4;
  p.exec = dsrt::sim::exponential(1.0);
  p.slack = dsrt::sim::uniform(1.0, 10.0);
  p.pex_error = make_perfect_prediction();
  return p;
}

TEST(LocalTaskSource, PoissonRateMatchesConfiguration) {
  Simulator sim;
  const double rate = 0.4;
  std::vector<double> arrivals;
  LocalTaskSource source(
      sim, 0, rate, dsrt::sim::exponential(1.0), dsrt::sim::uniform(0.25, 2.5),
      make_perfect_prediction(), Rng(21), /*until=*/50000.0,
      [&](dsrt::core::NodeId, double, double, double) {
        arrivals.push_back(sim.now());
      });
  source.start();
  sim.run();
  const double n = static_cast<double>(arrivals.size());
  EXPECT_NEAR(n / 50000.0, rate, 0.01);
  EXPECT_EQ(source.generated(), arrivals.size());
  // Inter-arrival gaps average 1/rate.
  dsrt::stats::Tally gaps;
  for (std::size_t i = 1; i < arrivals.size(); ++i)
    gaps.add(arrivals[i] - arrivals[i - 1]);
  EXPECT_NEAR(gaps.mean(), 1.0 / rate, 0.05);
}

TEST(LocalTaskSource, PayloadSatisfiesDeadlineIdentity) {
  Simulator sim;
  int checked = 0;
  LocalTaskSource source(
      sim, 3, 1.0, dsrt::sim::exponential(2.0), dsrt::sim::uniform(0.5, 1.5),
      make_perfect_prediction(), Rng(22), 1000.0,
      [&](dsrt::core::NodeId node, double exec, double pex, double deadline) {
        EXPECT_EQ(node, 3u);
        EXPECT_GT(exec, 0.0);
        EXPECT_DOUBLE_EQ(pex, exec);
        // dl = ar + ex + sl with sl in [0.5, 1.5].
        const double slack = deadline - sim.now() - exec;
        EXPECT_GE(slack, 0.5);
        EXPECT_LE(slack, 1.5);
        ++checked;
      });
  source.start();
  sim.run();
  EXPECT_GT(checked, 500);
}

TEST(LocalTaskSource, ZeroRateProducesNothing) {
  Simulator sim;
  LocalTaskSource source(sim, 0, 0.0, dsrt::sim::exponential(1.0),
                         dsrt::sim::uniform(0, 1), make_perfect_prediction(),
                         Rng(23), 1000.0,
                         [&](dsrt::core::NodeId, double, double, double) {
                           FAIL() << "no tasks expected";
                         });
  source.start();
  sim.run();
  EXPECT_EQ(source.generated(), 0u);
}

TEST(LocalTaskSource, StopsAtHorizon) {
  Simulator sim;
  double last = -1;
  LocalTaskSource source(sim, 0, 5.0, dsrt::sim::exponential(1.0),
                         dsrt::sim::uniform(0, 1), make_perfect_prediction(),
                         Rng(24), 100.0,
                         [&](dsrt::core::NodeId, double, double, double) {
                           last = sim.now();
                         });
  source.start();
  sim.run();
  EXPECT_LE(last, 100.0);
  EXPECT_GT(last, 90.0);  // ran essentially to the horizon
}

TEST(GlobalTaskSource, RateAndStructure) {
  Simulator sim;
  const double rate = 0.2;
  std::uint64_t count = 0;
  GlobalTaskSource source(sim, serial_params(), rate, Rng(25), 20000.0,
                          [&](const dsrt::core::TaskSpec& spec, double) {
                            EXPECT_EQ(spec.leaf_count(), 4u);
                            ++count;
                          });
  source.start();
  sim.run();
  EXPECT_NEAR(static_cast<double>(count) / 20000.0, rate, 0.01);
}

TEST(GlobalTaskSource, DeadlineUsesCriticalPathPlusSlack) {
  Simulator sim;
  GlobalTaskSource source(
      sim, serial_params(), 0.5, Rng(26), 2000.0,
      [&](const dsrt::core::TaskSpec& spec, double deadline) {
        const double slack =
            deadline - sim.now() - spec.critical_path_exec();
        EXPECT_GE(slack, 1.0);
        EXPECT_LE(slack, 10.0);
      });
  source.start();
  sim.run();
}

TEST(GlobalTaskSource, ParallelShapeDeadlineUsesLongestSubtask) {
  Simulator sim;
  GlobalTaskParams p = serial_params();
  p.shape = GlobalShape::Parallel;
  GlobalTaskSource source(
      sim, p, 0.5, Rng(27), 2000.0,
      [&](const dsrt::core::TaskSpec& spec, double deadline) {
        double longest = 0;
        for (const auto c : spec.children_of(spec.vertex(0)))
          longest = std::max(longest, spec.vertex(c).exec);
        // Equation (2): dl = max_i ex(Ti) + slack + ar.
        const double slack = deadline - sim.now() - longest;
        EXPECT_GE(slack, 1.0);
        EXPECT_LE(slack, 10.0);
      });
  source.start();
  sim.run();
}

TEST(GlobalTaskSource, VariableSubtaskCountClampedForParallel) {
  Simulator sim;
  GlobalTaskParams p = serial_params();
  p.shape = GlobalShape::Parallel;
  p.nodes = 4;
  p.subtask_count = dsrt::sim::uniform(1.0, 12.0);  // wants up to 12
  GlobalTaskSource source(sim, p, 0.5, Rng(28), 2000.0,
                          [&](const dsrt::core::TaskSpec& spec, double) {
                            EXPECT_GE(spec.leaf_count(), 1u);
                            EXPECT_LE(spec.leaf_count(), 4u);
                          });
  source.start();
  sim.run();
  EXPECT_GT(source.generated(), 100u);
}

TEST(GlobalTaskSource, MakeTaskSamplesWithoutScheduling) {
  Simulator sim;
  GlobalTaskSource source(sim, serial_params(), 1.0, Rng(29), 100.0,
                          [](const dsrt::core::TaskSpec&, double) {});
  const auto spec = source.make_task();
  EXPECT_EQ(spec.leaf_count(), 4u);
  EXPECT_EQ(sim.executed(), 0u);
}

TEST(GlobalTaskSource, RelFlexOneGivesEqualAverageFlexibility) {
  // Section 4.2.1 premise: with rel_flex = 1, global and local tasks have
  // the same average flexibility sl/ex. Build the global slack exactly as
  // SimulationRun does (Config::global_slack) and measure fl = slack /
  // critical-path over the generated stream; compare with the local ratio
  // E[sl]/E[ex] = 1.375 / 1.
  Simulator sim;
  const dsrt::system::Config cfg = dsrt::system::baseline_ssp();
  GlobalTaskParams p = serial_params();
  p.slack = cfg.global_slack();
  dsrt::stats::Tally slack_tally, exec_tally;
  GlobalTaskSource source(
      sim, p, 1.0, Rng(33), 20000.0,
      [&](const dsrt::core::TaskSpec& spec, double deadline) {
        exec_tally.add(spec.critical_path_exec());
        slack_tally.add(deadline - sim.now() - spec.critical_path_exec());
      });
  source.start();
  sim.run();
  const double global_flex = slack_tally.mean() / exec_tally.mean();
  const double local_flex =
      cfg.local_slack->mean() / cfg.local_exec->mean();
  EXPECT_NEAR(global_flex, local_flex, 0.05);
}

TEST(GlobalTaskSource, ParallelSubtasksHaveMoreSlackThanLocals) {
  // Section 5.2: "even though the slack of global tasks and local tasks is
  // generated from the same slack distribution, on average, a subtask of a
  // global task has more slack than a local" — under equation (2) each
  // member inherits max_i ex(Ti) + slack as its window, but only needs its
  // own ex(Ti).
  Simulator sim;
  GlobalTaskParams p = serial_params();
  p.shape = GlobalShape::Parallel;
  p.slack = dsrt::sim::uniform(1.25, 5.0);  // the PSP baseline range
  dsrt::stats::Tally member_slack;
  GlobalTaskSource source(
      sim, p, 1.0, Rng(34), 20000.0,
      [&](const dsrt::core::TaskSpec& spec, double deadline) {
        for (const auto m : spec.children_of(spec.vertex(0)))
          member_slack.add(deadline - sim.now() - spec.vertex(m).exec);
      });
  source.start();
  sim.run();
  // Locals drawing from the same U[1.25, 5.0] average 3.125 of slack;
  // members add the (max - own) execution surplus on top.
  EXPECT_GT(member_slack.mean(), 3.125 + 0.5);
}

TEST(GlobalTaskSource, RejectsNullComponents) {
  Simulator sim;
  GlobalTaskParams p = serial_params();
  p.exec = nullptr;
  EXPECT_THROW(GlobalTaskSource(sim, p, 1.0, Rng(30), 10.0,
                                [](const dsrt::core::TaskSpec&, double) {}),
               std::invalid_argument);
}

}  // namespace

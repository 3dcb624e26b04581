// Integration tests validating the simulation substrate against known
// queueing-theory results: an M/M/1 station must reproduce the analytic
// utilization and sojourn time, giving end-to-end confidence in the event
// kernel, sources, and server before any SDA logic is trusted. Little's law
// is checked per node as an exact identity over a run that drains.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "dsrt/sched/node.hpp"
#include "dsrt/sim/simulator.hpp"
#include "dsrt/stats/tally.hpp"
#include "dsrt/system/baseline.hpp"
#include "dsrt/system/metrics.hpp"
#include "dsrt/system/observer.hpp"
#include "dsrt/system/process_manager.hpp"
#include "dsrt/workload/generator.hpp"

namespace {

using namespace dsrt;

struct MM1Result {
  double utilization;
  double mean_sojourn;
  double mean_wait;
  std::uint64_t served;
};

MM1Result run_mm1(double lambda, double mu, double horizon,
                  std::uint64_t seed) {
  sim::Simulator simulator;
  sched::Node node(0, simulator, sched::make_fcfs(), sched::make_no_abort());
  stats::Tally sojourn, wait;
  node.set_completion_handler(
      [&](const sched::Job& job, double now, sched::JobOutcome) {
        sojourn.add(now - job.release);
        wait.add(now - job.release - job.exec);
      });
  workload::LocalTaskSource source(
      simulator, 0, lambda, sim::exponential(1.0 / mu),
      sim::constant(0.0),  // slack irrelevant here
      workload::make_perfect_prediction(), sim::Rng(seed), horizon,
      [&](core::NodeId, double exec, double pex, double deadline) {
        sched::Job job;
        job.id = 0;
        job.exec = exec;
        job.pex = pex;
        job.deadline = deadline;
        node.submit(job);
      });
  source.start();
  simulator.run(horizon);
  return {node.utilization(horizon), sojourn.mean(), wait.mean(),
          sojourn.count()};
}

TEST(MM1, UtilizationMatchesRho) {
  const auto r = run_mm1(/*lambda=*/0.5, /*mu=*/1.0, 200000, 91);
  EXPECT_NEAR(r.utilization, 0.5, 0.01);
}

TEST(MM1, SojournTimeMatchesTheory) {
  // E[T] = 1/(mu - lambda) = 2 for rho = 0.5.
  const auto r = run_mm1(0.5, 1.0, 400000, 92);
  EXPECT_NEAR(r.mean_sojourn, 2.0, 0.06);
  // E[W] = rho/(mu - lambda) = 1.
  EXPECT_NEAR(r.mean_wait, 1.0, 0.06);
}

TEST(MM1, HeavierLoad) {
  // rho = 0.8: E[T] = 1/(1 - 0.8) = 5.
  const auto r = run_mm1(0.8, 1.0, 400000, 93);
  EXPECT_NEAR(r.utilization, 0.8, 0.01);
  EXPECT_NEAR(r.mean_sojourn, 5.0, 0.35);
}

TEST(MM1, ThroughputEqualsArrivalRateWhenStable) {
  const auto r = run_mm1(0.5, 1.0, 200000, 94);
  EXPECT_NEAR(static_cast<double>(r.served) / 200000, 0.5, 0.01);
}

/// Sums, per node, the time each disposed job spent waiting in the ready
/// queue: its time at the node minus the service it received.
class QueueWaitLedger final : public system::Observer {
 public:
  explicit QueueWaitLedger(std::size_t nodes) : wait_(nodes, 0.0) {}

  void on_job_disposed(const sched::Job& job, sim::Time now,
                       sched::JobOutcome) override {
    wait_[job.node] += now - job.release - (job.exec - job.remaining);
    ++disposals_;
  }

  double wait(std::size_t node) const { return wait_[node]; }
  std::uint64_t disposals() const { return disposals_; }

 private:
  std::vector<double> wait_;
  std::uint64_t disposals_ = 0;
};

/// Little's law at every node of a fault-free fig2-style system (serial
/// global tasks plus locals) whose sources stop at `until` and which then
/// runs until it is empty. Over [0, T], the area under a node's ready-queue
/// length is exactly the total time its jobs spent waiting, so
/// mean_queue_length(T) * T equals that sum up to rounding.
void expect_littles_law_per_node(system::Config cfg) {
  constexpr sim::Time kUntil = 4000.0;
  sim::Simulator sim;
  sched::JobPool pool;
  std::vector<std::unique_ptr<sched::Node>> nodes;
  for (std::size_t i = 0; i < cfg.nodes; ++i)
    nodes.push_back(std::make_unique<sched::Node>(
        static_cast<core::NodeId>(i), sim, pool, cfg.policy,
        cfg.abort_policy, cfg.preemption));
  system::RunMetrics metrics;
  system::ProcessManager pm(sim, nodes, cfg.ssp, cfg.psp, metrics);
  QueueWaitLedger ledger(cfg.nodes);
  pm.set_observer(&ledger);

  std::vector<std::unique_ptr<workload::LocalTaskSource>> locals;
  const double local_rate =
      cfg.lambda_local_total() / static_cast<double>(cfg.nodes);
  for (std::size_t i = 0; i < cfg.nodes; ++i) {
    locals.push_back(std::make_unique<workload::LocalTaskSource>(
        sim, static_cast<core::NodeId>(i), local_rate, cfg.local_exec,
        cfg.local_slack, cfg.pex_error, sim::Rng(cfg.seed, 100 + i), kUntil,
        [&pm](core::NodeId node, double exec, double pex,
              sim::Time deadline) {
          pm.submit_local(node, exec, pex, deadline);
        }));
    locals.back()->start();
  }
  workload::GlobalTaskParams params;
  params.shape = cfg.shape;
  params.nodes = cfg.nodes;
  params.subtasks = cfg.subtasks;
  params.exec = cfg.subtask_exec;
  params.slack = cfg.global_slack();
  params.pex_error = cfg.pex_error;
  workload::GlobalTaskSource globals(
      sim, std::move(params), cfg.lambda_global(), sim::Rng(cfg.seed, 1),
      kUntil, [&pm](const core::TaskSpec& spec, sim::Time deadline) {
        pm.submit_global(spec, deadline);
      });
  globals.start();

  sim.run();  // to empty: the sources stop at kUntil, the nodes drain
  const sim::Time end = sim.now();
  ASSERT_GT(end, kUntil);
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_GT(ledger.disposals(), 10000u);
  std::uint64_t preemptions = 0, aborted = 0;
  for (const auto& node : nodes) {
    preemptions += node->preemptions();
    aborted += node->jobs_aborted();
  }
  // Each variant really exercises the path it is named for.
  if (cfg.preemption == sched::PreemptionMode::Preemptive)
    EXPECT_GT(preemptions, 0u);
  if (cfg.abort_policy->name() != "NoAbort") EXPECT_GT(aborted, 0u);
  for (std::size_t i = 0; i < cfg.nodes; ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(nodes[i]->queue_length(), 0u);
    const double area = nodes[i]->mean_queue_length(end) * end;
    const double waited = ledger.wait(i);
    ASSERT_GT(waited, 0.0);
    EXPECT_LE(std::fabs(area - waited), 1e-9 * waited)
        << "area " << area << " vs summed waits " << waited;
  }
}

system::Config littles_law_config() {
  system::Config cfg = system::baseline_ssp();
  cfg.load = 0.7;  // deep enough queues that ordering matters
  return cfg;
}

TEST(LittlesLaw, PerNodeUnderNonPreemptiveEdf) {
  expect_littles_law_per_node(littles_law_config());
}

TEST(LittlesLaw, PerNodeUnderPreemptiveMlf) {
  system::Config cfg = littles_law_config();
  cfg.policy = sched::make_mlf();
  cfg.preemption = sched::PreemptionMode::Preemptive;
  expect_littles_law_per_node(cfg);
}

TEST(LittlesLaw, PerNodeWithAbortAtDispatch) {
  system::Config cfg = littles_law_config();
  cfg.abort_policy = sched::make_abort_tardy();
  expect_littles_law_per_node(cfg);
}

}  // namespace

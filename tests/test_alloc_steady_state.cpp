// Steady-state allocation contract of the simulation hot path: once the
// fig2 baseline (Table 1: 6 nodes, EDF, serial global tasks of 4 subtasks,
// load 0.5) is warmed up — every pool, scratch buffer and queue past its
// high-water mark — the arrival → dispatch → disposal cycle of the event
// kernel *and* the task layer combined performs ZERO heap allocations.
//
// This pins the whole arena-backed lifecycle: the generator refills one
// flat TaskSpec in place, the process manager recycles pooled
// TaskInstances through the slot map, nodes churn flat ready queues, and
// the event queue recycles action slots. A single stray allocation per
// task (a vector rebuilt instead of reused, a map node, a std::function
// respawn) fails this test deterministically — seeds are fixed, so the
// allocation sequence is reproducible bit for bit.
//
// The global operator-new family is replaced by tests/support/
// alloc_counter.cpp (linked into this target only).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "dsrt/core/load_model.hpp"
#include "dsrt/core/placement.hpp"
#include "dsrt/obs/attribution.hpp"
#include "dsrt/obs/tee.hpp"
#include "dsrt/sched/abort_policy.hpp"
#include "dsrt/sched/node.hpp"
#include "dsrt/trace/recorder.hpp"
#include "dsrt/sched/policy.hpp"
#include "dsrt/sim/event_queue.hpp"
#include "dsrt/sim/rng.hpp"
#include "dsrt/sim/simulator.hpp"
#include "dsrt/system/baseline.hpp"
#include "dsrt/system/metrics.hpp"
#include "dsrt/system/process_manager.hpp"
#include "dsrt/system/simulation.hpp"
#include "dsrt/workload/generator.hpp"
#include "support/alloc_counter.hpp"
#include "support/spec.hpp"

namespace {

using namespace dsrt;
using dsrt::testing::spec_of;

/// The fig2 system, wired by hand so the simulator clock can be advanced
/// in phases (SimulationRun::run is one-shot to the horizon).
struct Fig2System {
  static constexpr sim::Time kHorizon = 50000.0;

  sim::Simulator sim;
  sched::JobPool pool;  ///< shared by every node, as in SimulationRun
  std::vector<std::unique_ptr<sched::Node>> nodes;
  system::RunMetrics metrics;
  std::unique_ptr<system::ProcessManager> pm;
  std::vector<std::unique_ptr<workload::LocalTaskSource>> locals;
  std::unique_ptr<workload::GlobalTaskSource> globals;

  Fig2System() {
    const system::Config cfg = system::baseline_ssp();
    for (std::size_t i = 0; i < cfg.nodes; ++i) {
      nodes.push_back(std::make_unique<sched::Node>(
          static_cast<core::NodeId>(i), sim, pool, cfg.policy,
          cfg.abort_policy, cfg.preemption));
      nodes.back()->reserve_ready(sched::ready_reserve_for_scale(cfg.nodes));
    }
    pm = std::make_unique<system::ProcessManager>(sim, nodes, cfg.ssp,
                                                  cfg.psp, metrics);
    const double local_rate =
        cfg.lambda_local_total() / static_cast<double>(cfg.nodes);
    for (std::size_t i = 0; i < cfg.nodes; ++i) {
      locals.push_back(std::make_unique<workload::LocalTaskSource>(
          sim, static_cast<core::NodeId>(i), local_rate, cfg.local_exec,
          cfg.local_slack, cfg.pex_error, sim::Rng(cfg.seed, 100 + i),
          kHorizon,
          [this](core::NodeId node, double exec, double pex,
                 sim::Time deadline) {
            pm->submit_local(node, exec, pex, deadline);
          }));
    }
    workload::GlobalTaskParams params;
    params.shape = cfg.shape;
    params.nodes = cfg.nodes;
    params.subtasks = cfg.subtasks;
    params.exec = cfg.subtask_exec;
    params.slack = cfg.global_slack();
    params.pex_error = cfg.pex_error;
    globals = std::make_unique<workload::GlobalTaskSource>(
        sim, std::move(params), cfg.lambda_global(), sim::Rng(cfg.seed, 1),
        kHorizon, [this](const core::TaskSpec& spec, sim::Time deadline) {
          pm->submit_global(spec, deadline);
        });
    // Pool prewarm: the instance pool grows only at new high-water marks
    // of *simultaneously live* tasks, and that peak can creep arbitrarily
    // late in a stochastic run. Flooding the manager once with more
    // concurrent tasks than the measured window will ever hold in flight
    // moves every such growth event into the warm-up phase, so the
    // measured cycle exercises pure recycling. (These submissions draw
    // nothing from the workload RNG streams; they only shift the clock.)
    const auto flood = spec_of(
        "S(0.001/0.001@0 0.001/0.001@1 0.001/0.001@2 0.001/0.001@3)");
    for (int i = 0; i < 64; ++i) pm->submit_global(flood, /*deadline=*/1e9);
    sim.run(sim.now() + 10.0);  // drain the flood
    for (auto& source : locals) source->start();
    globals->start();
  }
};

TEST(AllocSteadyState, WarmFig2CycleAllocatesNothing) {
  Fig2System f;

  // Warm-up: thousands of task lifecycles push every buffer — instance
  // pool, flat-spec arena, event slots, ready queues, disposal scratch —
  // past its steady-state high-water mark.
  f.sim.run(5000.0);
  ASSERT_GT(f.metrics.global.generated, 500u);  // the cycle really ran

  // Measured window: ~10k further local tasks and ~800 further global
  // tasks (arrival, spec fill, deadline decomposition, node queueing,
  // service, disposal, instance recycling) must not touch the allocator.
  const std::uint64_t allocs_before = dsrt::testing::allocation_count();
  const std::uint64_t frees_before = dsrt::testing::deallocation_count();
  const std::uint64_t tasks_before = f.metrics.global.generated;
  f.sim.run(15000.0);
  const std::uint64_t allocs = dsrt::testing::allocation_count() -
                               allocs_before;
  const std::uint64_t frees = dsrt::testing::deallocation_count() -
                              frees_before;
  const std::uint64_t tasks = f.metrics.global.generated - tasks_before;

  EXPECT_GT(tasks, 500u);
  EXPECT_EQ(allocs, 0u) << "steady-state cycle hit the allocator " << allocs
                        << " times over " << tasks << " global tasks";
  EXPECT_EQ(frees, 0u) << "steady-state cycle freed " << frees
                       << " heap blocks over " << tasks << " global tasks";
}

TEST(AllocSteadyState, PassiveCountersKeepDetachedRunAllocationFree) {
  // The obs counters added to the hot layers (event-queue high-water mark
  // and mode flips, per-node ready-queue peaks, pool recycle counts, load
  // and placement tallies) are plain member increments — with no observer
  // attached and no harvest, the steady-state cycle must still be
  // allocation-free. This is the same contract as WarmFig2CycleAllocates-
  // Nothing, asserted separately so a probe regression is named as such.
  Fig2System f;
  f.sim.run(5000.0);
  const std::uint64_t allocs_before = dsrt::testing::allocation_count();
  f.sim.run(10000.0);
  const std::uint64_t allocs =
      dsrt::testing::allocation_count() - allocs_before;
  EXPECT_EQ(allocs, 0u)
      << "passive engine counters allocated " << allocs << " times";
}

TEST(AllocSteadyState, AttachedObserversStayBounded) {
  // With the full observability stack attached — a pre-filled KeepTail ring
  // recorder (overwrites in place, never grows) and the miss-attribution
  // postmortem (pooled task records; one hash-map node churned per task) —
  // steady-state allocation must stay bounded by a small multiple of the
  // task count, not by the event count.
  Fig2System f;
  trace::Recorder recorder(1024, trace::Overflow::KeepTail);
  obs::MissAttribution attribution(6);
  obs::ObserverTee tee;
  tee.attach(&recorder);
  tee.attach(&attribution);
  f.pm->set_observer(&tee);

  f.sim.run(5000.0);  // warm-up fills the ring and the attribution pool
  ASSERT_GT(recorder.dropped(), 0u);  // ring really wrapped

  const std::uint64_t allocs_before = dsrt::testing::allocation_count();
  const std::uint64_t tasks_before = f.metrics.global.generated;
  f.sim.run(10000.0);
  const std::uint64_t allocs =
      dsrt::testing::allocation_count() - allocs_before;
  const std::uint64_t tasks = f.metrics.global.generated - tasks_before;

  ASSERT_GT(tasks, 300u);
  // The ring recorder allocates nothing; attribution may allocate a few
  // blocks per task (unordered_map node churn + first-touch job vectors).
  EXPECT_LT(allocs, 4 * tasks)
      << "attached observers allocated " << allocs << " times over " << tasks
      << " tasks";
}

/// A system with deferred placement over a load board: every global leaf
/// carries an eligible set and is bound by a placement policy reading the
/// board through an exact or sampled view (the sampled one refreshed every
/// simulated time unit, as SimulationRun chains it). Hand-wired like
/// Fig2System, mirroring SimulationRun's proportional reserves.
struct PlacedSystem {
  struct Options {
    std::size_t nodes;
    sim::QueueMode queue;
    const char* placement;
    core::LoadModelKind load_model;
    sim::Time horizon;
    int flood;  ///< concurrent tasks of the pool prewarm
  };

  Options opt;
  sim::Simulator sim;
  sched::JobPool pool;  ///< shared by every node, as in SimulationRun
  std::vector<std::unique_ptr<sched::Node>> nodes;
  core::LoadBoard board;
  std::unique_ptr<core::LoadModel> model;
  core::SnapshotLoadModel* snapshot = nullptr;
  core::PlacementPolicyPtr placement;
  system::RunMetrics metrics;
  std::unique_ptr<system::ProcessManager> pm;
  std::vector<std::unique_ptr<workload::LocalTaskSource>> locals;
  std::unique_ptr<workload::GlobalTaskSource> globals;

  explicit PlacedSystem(Options o) : opt(o), board(o.nodes) {
    system::Config cfg = system::baseline_ssp();
    cfg.nodes = opt.nodes;
    // Before the first push: a forced layout applies from event one.
    sim.configure_queue(opt.queue, 2 * opt.nodes + 64);
    placement = core::make_placement(
        core::PlacementSpec::parse(opt.placement), cfg.seed);
    if (opt.load_model == core::LoadModelKind::Exact) {
      model = std::make_unique<core::ExactLoadModel>(board);
    } else {
      auto snap = std::make_unique<core::SnapshotLoadModel>(
          board, /*period=*/1.0, core::SnapshotLoadModel::Serve::Latest);
      snapshot = snap.get();
      model = std::move(snap);
    }
    for (std::size_t i = 0; i < opt.nodes; ++i) {
      nodes.push_back(std::make_unique<sched::Node>(
          static_cast<core::NodeId>(i), sim, pool, cfg.policy,
          cfg.abort_policy, cfg.preemption));
      nodes.back()->reserve_ready(sched::ready_reserve_for_scale(opt.nodes));
      board[i].configure(cfg.load_model.ewma_tau, sim.now());
      nodes.back()->attach_load_account(&board[i]);
    }
    pm = std::make_unique<system::ProcessManager>(
        sim, nodes, cfg.ssp, cfg.psp, metrics, model.get(), placement.get());
    pm->reserve_for_scale(opt.nodes);
    const double local_rate =
        cfg.lambda_local_total() / static_cast<double>(opt.nodes);
    for (std::size_t i = 0; i < opt.nodes; ++i) {
      locals.push_back(std::make_unique<workload::LocalTaskSource>(
          sim, static_cast<core::NodeId>(i), local_rate, cfg.local_exec,
          cfg.local_slack, cfg.pex_error, sim::Rng(cfg.seed, 100 + i),
          opt.horizon,
          [this](core::NodeId node, double exec, double pex,
                 sim::Time deadline) {
            pm->submit_local(node, exec, pex, deadline);
          }));
    }
    workload::GlobalTaskParams params;
    params.shape = cfg.shape;
    params.nodes = opt.nodes;
    params.subtasks = cfg.subtasks;
    params.exec = cfg.subtask_exec;
    params.slack = cfg.global_slack();
    params.pex_error = cfg.pex_error;
    params.defer_placement = true;  // eligible-set leaves, bound by policy
    globals = std::make_unique<workload::GlobalTaskSource>(
        sim, std::move(params), cfg.lambda_global(), sim::Rng(cfg.seed, 1),
        opt.horizon, [this](const core::TaskSpec& spec, sim::Time deadline) {
          pm->submit_global(spec, deadline);
        });
    // Pool prewarm, scaled: the live-instance peak grows with the global
    // arrival rate (proportional to k); flooding well past it moves every
    // slot-map growth into warm-up (see Fig2System for the rationale).
    const auto flood = spec_of(
        "S(0.001/0.001@0 0.001/0.001@1 0.001/0.001@2 0.001/0.001@3)");
    for (int i = 0; i < opt.flood; ++i)
      pm->submit_global(flood, /*deadline=*/1e9);
    sim.run(sim.now() + 10.0);  // drain the flood
    if (snapshot) schedule_refresh();
    for (auto& source : locals) source->start();
    globals->start();
  }

  void schedule_refresh() {
    sim.at(sim.now() + snapshot->period(), [this] {
      snapshot->refresh(sim.now());
      schedule_refresh();
    });
  }
};

/// The big-config system: k=1024 nodes, forced-ladder event queue (~2050
/// events stay pending, past the bucket threshold), pod:2 placement over
/// an exact load board.
PlacedSystem::Options scale_options() {
  return {1024, sim::QueueMode::Ladder, "pod:2", core::LoadModelKind::Exact,
          2000.0, 768};
}

TEST(AllocSteadyState, BigConfigLadderPodCycleAllocatesNothing) {
  // The k>=1024 acceptance bar of the scaling PR: with the ladder queue
  // holding ~2050 pending events, pod:2 sampling every global stage, and
  // the sharded load board live, the warmed steady-state cycle must not
  // touch the allocator at all — same contract as the fig2 baseline, at
  // 170x the node count.
  PlacedSystem s(scale_options());

  // Warm-up: ~250k local + ~18k global lifecycles push the ladder buckets,
  // overflow/respill scratch, eligible-set pools, and every per-node queue
  // past their high-water marks. Bucket-occupancy maxima creep slower than
  // pool peaks (the last capacity raise on this seed is an epoch re-seed
  // near t=750), hence the long warm-up relative to the fig2 test; the
  // run is fixed-seed deterministic, so the window is reproducible.
  s.sim.run(800.0);
  ASSERT_GT(s.metrics.global.generated, 10000u);

  const std::uint64_t allocs_before = dsrt::testing::allocation_count();
  const std::uint64_t frees_before = dsrt::testing::deallocation_count();
  const std::uint64_t tasks_before = s.metrics.global.generated;
  s.sim.run(1900.0);
  const std::uint64_t allocs =
      dsrt::testing::allocation_count() - allocs_before;
  const std::uint64_t frees =
      dsrt::testing::deallocation_count() - frees_before;
  const std::uint64_t tasks = s.metrics.global.generated - tasks_before;

  EXPECT_GT(tasks, 2000u);
  EXPECT_EQ(allocs, 0u) << "big-config steady-state cycle hit the allocator "
                        << allocs << " times over " << tasks
                        << " global tasks";
  EXPECT_EQ(frees, 0u) << "big-config steady-state cycle freed " << frees
                       << " heap blocks over " << tasks << " global tasks";
}

/// Warms a k=64 jsq-pex system over `kind`, then counts the allocations
/// of a further stretch of simulated time.
void expect_warm_jsq_cycle_allocates_nothing(core::LoadModelKind kind) {
  PlacedSystem s({64, sim::QueueMode::Adaptive, "jsq-pex", kind, 6000.0, 256});
  // Warm-up: the rank index is built on the first decision and, over the
  // sampled view, rebuilt after every refresh; the exact view re-keys the
  // nodes each account write marked. Both reach their final size here.
  s.sim.run(2000.0);
  ASSERT_GT(s.placement->counters().decisions, 1000u);

  const std::uint64_t allocs_before = dsrt::testing::allocation_count();
  const std::uint64_t decisions_before = s.placement->counters().decisions;
  s.sim.run(5000.0);
  const std::uint64_t allocs =
      dsrt::testing::allocation_count() - allocs_before;
  const std::uint64_t decisions =
      s.placement->counters().decisions - decisions_before;

  EXPECT_GT(decisions, 1000u);
  if (s.snapshot) EXPECT_GT(s.snapshot->refreshes(), 4000u);
  EXPECT_EQ(allocs, 0u) << "warm jsq-pex cycle over " << s.model->name()
                        << " hit the allocator " << allocs << " times over "
                        << decisions << " placement decisions";
}

TEST(AllocSteadyState, WarmJsqCycleOverSampledBoardAllocatesNothing) {
  expect_warm_jsq_cycle_allocates_nothing(core::LoadModelKind::Sampled);
}

TEST(AllocSteadyState, WarmJsqCycleOverExactBoardAllocatesNothing) {
  expect_warm_jsq_cycle_allocates_nothing(core::LoadModelKind::Exact);
}

TEST(AllocSteadyState, BigConfigConstructionFootprintIsBounded) {
  // Building a k=4096 pod:2 run over the exact board reserves each node one
  // heap of 24-byte ready entries (jobs wait in the run's shared pool) and
  // makes every reservation once. A per-node reserve of whole jobs costs
  // ~59 MB here, and a reserve made twice frees a block per node.
  system::Config cfg = system::baseline_ssp();
  cfg.nodes = 4096;
  cfg.load = 0.5;
  cfg.placement = core::PlacementSpec::parse("pod:2");
  cfg.load_model = core::LoadModelSpec::parse("exact");
  cfg.horizon = 240;

  const std::uint64_t bytes_before = dsrt::testing::allocated_bytes();
  const std::uint64_t frees_before = dsrt::testing::deallocation_count();
  auto run = std::make_unique<system::SimulationRun>(cfg);
  const std::uint64_t bytes =
      dsrt::testing::allocated_bytes() - bytes_before;
  const std::uint64_t frees =
      dsrt::testing::deallocation_count() - frees_before;

  ASSERT_EQ(run->nodes().size(), 4096u);
  EXPECT_LE(bytes, 24u << 20) << "k=4096 construction requested " << bytes
                              << " bytes";
  EXPECT_LT(frees, 64u) << "k=4096 construction freed " << frees
                        << " heap blocks";
}

TEST(AllocSteadyState, CounterSeesAllocations) {
  // Sanity: the hook is actually installed in this binary. A new-expression
  // may be elided or merged by the optimizer (C++14 allocation elision), so
  // the probe calls ::operator new directly and lets both pointers escape
  // through a volatile sink: neither call can be dropped.
  void* volatile sink[2];
  const std::uint64_t before = dsrt::testing::allocation_count();
  sink[0] = ::operator new(sizeof(std::vector<int>));
  sink[1] = ::operator new(1024 * sizeof(int));
  const std::uint64_t after = dsrt::testing::allocation_count();
  ::operator delete(sink[0]);
  ::operator delete(sink[1]);
  EXPECT_GE(after - before, 2u);  // two distinct allocations
}

}  // namespace

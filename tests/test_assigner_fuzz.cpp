// Randomized stress tests for TaskInstance: arbitrary serial-parallel
// trees, strategies, and completion interleavings must preserve the
// decomposition invariants — every leaf submitted exactly once, completion
// reached exactly when all leaves finish, all virtual deadlines finite for
// activated vertices.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "dsrt/core/assigner.hpp"
#include "dsrt/core/load_aware_strategies.hpp"
#include "dsrt/core/load_model.hpp"
#include "dsrt/core/parallel_strategies.hpp"
#include "dsrt/core/serial_strategies.hpp"
#include "dsrt/sim/rng.hpp"
#include "support/spec.hpp"

namespace {

using namespace dsrt::core;
using dsrt::sim::Rng;
using dsrt::testing::spec_of;

/// Test double: a frozen per-node load state (no accounts, no decay).
class FixedLoadModel final : public LoadModel {
 public:
  explicit FixedLoadModel(std::vector<NodeLoad> loads)
      : loads_(std::move(loads)) {}
  NodeLoad load(NodeId node, dsrt::sim::Time) const override {
    return node < loads_.size() ? loads_[node] : NodeLoad{};
  }
  std::string_view name() const override { return "fixed"; }

 private:
  std::vector<NodeLoad> loads_;
};

/// Random load state over `nodes` nodes; heavy tails on purpose (backlogs
/// far above any group window) so the clamp paths get exercised.
FixedLoadModel random_load_model(Rng& rng, std::size_t nodes) {
  std::vector<NodeLoad> loads(nodes);
  for (auto& load : loads) {
    load.queued_pex = rng.uniform01() < 0.2 ? 0.0 : rng.exponential(5.0);
    load.utilization = rng.uniform01();
    load.queue_length = static_cast<std::uint32_t>(rng.below(16));
  }
  return FixedLoadModel(std::move(loads));
}

/// Random serial-parallel tree with at most `max_depth` levels, written in
/// the trace shape grammar (hexfloat times round-trip exactly). A group's
/// serial/parallel coin is drawn after its children.
std::string random_tree(Rng& rng, int max_depth) {
  if (max_depth <= 1 || rng.uniform01() < 0.4) {
    const double exec = rng.exponential(1.0);
    const auto node = static_cast<unsigned>(rng.below(8));
    char leaf[80];
    std::snprintf(leaf, sizeof leaf, "%a/%a@%u", exec, exec, node);
    return leaf;
  }
  const std::size_t width = 2 + rng.below(3);
  std::string children;
  for (std::size_t i = 0; i < width; ++i)
    children += ' ' + random_tree(rng, max_depth - 1);
  return (rng.uniform01() < 0.5 ? "S(" : "P(") + children.substr(1) + ')';
}

struct StrategyPair {
  SerialStrategyPtr ssp;
  ParallelStrategyPtr psp;
};

StrategyPair random_strategies(Rng& rng) {
  static const std::vector<const char*> serial_names = {
      "UD", "ED", "EQS", "EQF", "EQS-S", "EQF-S", "EQS-L", "EQF-L"};
  static const std::vector<const char*> parallel_names = {
      "UD", "DIV1", "DIV2", "DIV0.5", "GF", "EQF-P", "DIVA", "DIVA2"};
  return {serial_strategy_by_name(
              serial_names[rng.below(serial_names.size())]),
          parallel_strategy_by_name(
              parallel_names[rng.below(parallel_names.size())])};
}

TEST(TaskInstanceFuzz, RandomTreesCompleteUnderRandomInterleavings) {
  Rng rng(20250612);
  for (int trial = 0; trial < 500; ++trial) {
    const TaskSpec spec = spec_of(random_tree(rng, 4));
    const auto [ssp, psp] = random_strategies(rng);
    const double arrival = rng.uniform(0, 10);
    const double deadline =
        arrival + spec.critical_path_exec() + rng.uniform(0, 20);
    TaskInstance inst(static_cast<TaskId>(trial), spec, arrival, deadline,
                      ssp, psp);

    std::vector<LeafSubmission> ready;
    inst.start(arrival, ready);
    EXPECT_FALSE(ready.empty());

    std::set<std::size_t> submitted;
    for (const auto& s : ready) {
      EXPECT_TRUE(submitted.insert(s.leaf).second)
          << "leaf submitted twice at start";
    }

    double now = arrival;
    std::size_t completions = 0;
    bool done = false;
    while (!ready.empty()) {
      // Complete a random ready leaf at a random later time.
      const std::size_t pick = rng.below(ready.size());
      const LeafSubmission sub = ready[static_cast<std::size_t>(pick)];
      ready.erase(ready.begin() + static_cast<long>(pick));
      now += rng.exponential(0.2);
      std::vector<LeafSubmission> next;
      done = inst.on_leaf_complete(sub.leaf, now, next);
      ++completions;
      for (const auto& s : next) {
        EXPECT_TRUE(submitted.insert(s.leaf).second)
            << "leaf submitted twice mid-run";
        EXPECT_TRUE(std::isfinite(s.deadline));
        ready.push_back(s);
      }
      EXPECT_EQ(done, ready.empty() && completions == spec.leaf_count())
          << "completion must coincide with the last leaf";
    }
    EXPECT_TRUE(done);
    EXPECT_EQ(completions, spec.leaf_count());
    EXPECT_EQ(submitted.size(), spec.leaf_count());
    EXPECT_EQ(inst.state(), InstanceState::Completed);
    EXPECT_TRUE(inst.drained());
  }
}

TEST(TaskInstanceFuzz, AbortMidTreeAlwaysDrains) {
  Rng rng(777);
  for (int trial = 0; trial < 300; ++trial) {
    const TaskSpec spec = spec_of(random_tree(rng, 4));
    const auto [ssp, psp] = random_strategies(rng);
    TaskInstance inst(1, spec, 0.0, spec.critical_path_exec() + 5.0, ssp,
                      psp);
    std::vector<LeafSubmission> ready;
    inst.start(0.0, ready);
    double now = 0;
    // Complete a random prefix, then abort.
    const std::size_t to_complete = rng.below(spec.leaf_count());
    std::size_t completed = 0;
    while (completed < to_complete && !ready.empty()) {
      const LeafSubmission sub = ready.back();
      ready.pop_back();
      now += 0.1;
      std::vector<LeafSubmission> next;
      inst.on_leaf_complete(sub.leaf, now, next);
      ++completed;
      ready.insert(ready.end(), next.begin(), next.end());
    }
    if (inst.state() == InstanceState::Completed) continue;  // tiny tree
    inst.abort();
    EXPECT_EQ(inst.state(), InstanceState::Aborted);
    // Drain outstanding submissions; none may spawn more work.
    for (const auto& sub : ready) {
      std::vector<LeafSubmission> next;
      EXPECT_FALSE(inst.on_leaf_complete(sub.leaf, now + 1.0, next));
      EXPECT_TRUE(next.empty());
    }
    EXPECT_TRUE(inst.drained());
  }
}

TEST(TaskInstanceFuzz, GenerousDeadlineOnScheduleNeverViolated) {
  // With every stage finishing exactly on pex and a non-negative-slack
  // deadline, the dynamic strategies' virtual deadlines are always
  // reachable: completion time <= dl(T).
  Rng rng(31337);
  for (int trial = 0; trial < 300; ++trial) {
    const TaskSpec spec = spec_of(random_tree(rng, 3));
    for (const char* name : {"UD", "ED", "EQS", "EQF"}) {
      TaskInstance inst(1, spec, 0.0, spec.critical_path_exec() + 1.0,
                        serial_strategy_by_name(name), make_parallel_ud());
      std::vector<LeafSubmission> ready;
      inst.start(0.0, ready);
      // Simulate perfectly parallel execution: each leaf completes at its
      // release time + exec; track per-leaf finish times.
      std::vector<std::pair<LeafSubmission, double>> queue;
      for (const auto& s : ready) queue.emplace_back(s, s.exec);
      double finish = 0;
      bool done = false;
      while (!queue.empty()) {
        // Earliest-finishing leaf completes next.
        auto it = std::min_element(
            queue.begin(), queue.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
        const auto [sub, at] = *it;
        queue.erase(it);
        finish = at;
        std::vector<LeafSubmission> next;
        done = inst.on_leaf_complete(sub.leaf, at, next);
        for (const auto& s : next) queue.emplace_back(s, at + s.exec);
      }
      EXPECT_TRUE(done);
      EXPECT_LE(finish, spec.critical_path_exec() + 1.0 + 1e-9) << name;
    }
  }
}

TEST(TaskInstanceFuzz, LoadAwareDeadlinesFiniteAndGroupDeadlineBounded) {
  // Random trees x random frozen load states: every virtual deadline the
  // load-aware strategies assign must be finite (no NaN/inf, however large
  // the backlog) and bounded by the task's end-to-end deadline,
  // dl(Ti) <= dl(T) — recursively, since every group level clamps to its
  // own (already bounded) group deadline.
  Rng rng(424242);
  static const std::vector<const char*> serial_names = {"EQS-L", "EQF-L"};
  // PSPs whose assignments never leave the group window (DIVA enforces
  // x >= 1 and clamps late activations), so the bound composes up the tree.
  static const std::vector<const char*> parallel_names = {"UD", "GF", "DIVA",
                                                          "DIVA3"};
  for (int trial = 0; trial < 400; ++trial) {
    const TaskSpec spec = spec_of(random_tree(rng, 4));
    const FixedLoadModel model = random_load_model(rng, 8);
    const auto ssp = serial_strategy_by_name(
        serial_names[rng.below(serial_names.size())]);
    const auto psp = parallel_strategy_by_name(
        parallel_names[rng.below(parallel_names.size())]);
    const double arrival = rng.uniform(0, 10);
    // Deliberately include tight deadlines (less slack than the critical
    // path needs) so negative-slack branches are fuzzed too.
    const double deadline =
        arrival + spec.critical_path_exec() * rng.uniform(0.25, 1.5) +
        rng.uniform(0, 10);
    TaskInstance inst(static_cast<TaskId>(trial), spec, arrival, deadline,
                      ssp, psp, &model);

    std::vector<LeafSubmission> ready;
    inst.start(arrival, ready);
    double now = arrival;
    while (!ready.empty()) {
      for (const auto& s : ready) {
        EXPECT_TRUE(std::isfinite(s.deadline)) << s.leaf;
        EXPECT_LE(s.deadline, deadline + 1e-9) << s.leaf;
      }
      const std::size_t pick = rng.below(ready.size());
      const LeafSubmission sub = ready[pick];
      ready.erase(ready.begin() + static_cast<long>(pick));
      now += rng.exponential(0.5);
      std::vector<LeafSubmission> next;
      inst.on_leaf_complete(sub.leaf, now, next);
      ready.insert(ready.end(), next.begin(), next.end());
    }
    EXPECT_EQ(inst.state(), InstanceState::Completed);
    // Every activated vertex (not only leaves) got a finite deadline.
    for (std::size_t v = 0; v < inst.vertex_count(); ++v)
      EXPECT_TRUE(std::isfinite(inst.vertex_deadline(v))) << v;
  }
}

TEST(TaskInstanceFuzz, LoadAwareDeadlinesMonotoneInLoad) {
  // More backlog at the subtask's node must never yield an *earlier*
  // virtual deadline: the queueing charge only pushes the stage's window
  // out (until the group-deadline clamp absorbs it).
  Rng rng(987654321);
  const auto eqs_l = make_eqs_load_aware();
  const auto eqf_l = make_eqf_load_aware();
  for (int trial = 0; trial < 1000; ++trial) {
    SerialContext ctx;
    ctx.count = 1 + rng.below(6);
    ctx.index = rng.below(ctx.count);
    ctx.group_arrival = rng.uniform(0, 20);
    ctx.now = ctx.group_arrival + rng.uniform(0, 5);
    ctx.pex_self = rng.exponential(1.0);
    double later = 0;
    for (std::size_t j = ctx.index + 1; j < ctx.count; ++j)
      later += rng.exponential(1.0);
    ctx.pex_remaining = ctx.pex_self + later;
    ctx.pex_group_total = ctx.pex_remaining;
    // D >= now: the group window has not already closed (with a closed
    // window there is no meaningful ordering to preserve).
    ctx.group_deadline = ctx.now + rng.uniform(0, 25);
    ctx.node = 0;
    double q = 0;
    double prev_eqs = -1e300, prev_eqf = -1e300;
    for (int step = 0; step < 8; ++step) {
      const FixedLoadModel model({NodeLoad{q, 0.5, 3}});
      ctx.load = &model;
      const double dl_eqs = eqs_l->assign(ctx);
      const double dl_eqf = eqf_l->assign(ctx);
      EXPECT_GE(dl_eqs, prev_eqs - 1e-9) << "q=" << q;
      EXPECT_GE(dl_eqf, prev_eqf - 1e-9) << "q=" << q;
      EXPECT_LE(dl_eqs, ctx.group_deadline);
      EXPECT_LE(dl_eqf, ctx.group_deadline);
      prev_eqs = dl_eqs;
      prev_eqf = dl_eqf;
      q += rng.exponential(2.0);
    }
  }
}

}  // namespace

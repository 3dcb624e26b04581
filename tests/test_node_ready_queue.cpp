// Differential test of the node ready queue. Random submit scripts drive
// real nodes and a reference single-server model kept in this file, whose
// ready queue is an ordered std::map keyed by (class rank, policy key,
// submission sequence). Every disposal must match: job id, outcome, time
// and remaining demand, plus each node's preemption count and ready-queue
// high-water mark. The scripts cover all four policies, both priority
// classes, equal keys and signed-zero keys, preemptive and non-preemptive
// service, abort at dispatch, and crashes with jobs still queued, on nodes
// that share one job pool and on a standalone node that owns its pool.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "dsrt/sched/abort_policy.hpp"
#include "dsrt/sched/job_pool.hpp"
#include "dsrt/sched/node.hpp"
#include "dsrt/sched/policy.hpp"
#include "dsrt/sim/simulator.hpp"

namespace {

using namespace dsrt;
using sched::Job;
using sched::JobOutcome;
using sched::PreemptionMode;

struct Disposal {
  core::NodeId node;
  sched::JobId id;
  JobOutcome outcome;
  sim::Time time;
  double remaining;

  bool operator==(const Disposal& o) const {
    return node == o.node && id == o.id && outcome == o.outcome &&
           time == o.time && remaining == o.remaining;
  }
};

std::ostream& operator<<(std::ostream& os, const Disposal& d) {
  return os << "{node " << d.node << ", job " << d.id << ", outcome "
            << static_cast<int>(d.outcome) << ", t " << d.time
            << ", remaining " << d.remaining << "}";
}

/// The reference: one server, an ordered map as the ready queue, and the
/// node's documented rules for preemption, abort at dispatch and crashes.
class RefNode {
 public:
  RefNode(core::NodeId id, sim::Simulator& sim, sched::PolicyPtr policy,
          sched::AbortPolicyPtr abort, PreemptionMode mode,
          std::vector<Disposal>& log)
      : id_(id),
        sim_(sim),
        policy_(std::move(policy)),
        abort_(std::move(abort)),
        mode_(mode),
        log_(log) {}

  void submit(Job job) {
    job.release = sim_.now();
    if (!up_) {
      dispose(job, JobOutcome::Failed);
      return;
    }
    if (job.remaining <= 0) job.remaining = job.exec;
    const Key key{job.priority == core::PriorityClass::Elevated ? 0 : 1,
                  policy_->key(job), seq_++};
    if (!busy_) {
      if (abort_->should_abort(job, sim_.now())) {
        dispose(job, JobOutcome::Aborted);
        dispatch_next();
        return;
      }
      start(job, key);
      return;
    }
    if (mode_ == PreemptionMode::Preemptive && key < running_key_) {
      Job suspended = running_;
      busy_ = false;
      ++token_;
      suspended.remaining -= sim_.now() - started_;
      if (suspended.remaining < 0) suspended.remaining = 0;
      ++preemptions_;
      wait(suspended, running_key_);
      start(job, key);
      return;
    }
    wait(job, key);
  }

  void fail(sim::Time) {
    if (!up_) return;
    up_ = false;
    if (busy_) {
      busy_ = false;
      ++token_;
      dispose(running_, JobOutcome::Failed);
    }
    for (const auto& [key, job] : ready_) dispose(job, JobOutcome::Failed);
    ready_.clear();
  }

  void recover(sim::Time) { up_ = true; }

  std::uint64_t preemptions() const { return preemptions_; }
  std::size_t max_queue_length() const { return max_queue_; }

 private:
  using Key = std::tuple<int, double, std::uint64_t>;

  void dispose(const Job& job, JobOutcome outcome) {
    log_.push_back({id_, job.id, outcome, sim_.now(), job.remaining});
  }

  void wait(const Job& job, const Key& key) {
    ready_.emplace(key, job);
    if (ready_.size() > max_queue_) max_queue_ = ready_.size();
  }

  void start(const Job& job, const Key& key) {
    running_ = job;
    running_key_ = key;
    busy_ = true;
    started_ = sim_.now();
    const std::uint64_t token = ++token_;
    sim_.in(job.remaining, [this, token] { complete(token); });
  }

  void complete(std::uint64_t token) {
    if (token != token_ || !busy_) return;
    busy_ = false;
    running_.remaining = 0;
    dispose(running_, JobOutcome::Completed);
    dispatch_next();
  }

  void dispatch_next() {
    while (!busy_ && !ready_.empty()) {
      const auto first = ready_.begin();
      const Key key = first->first;
      const Job job = first->second;
      ready_.erase(first);
      if (abort_->should_abort(job, sim_.now())) {
        dispose(job, JobOutcome::Aborted);
        continue;
      }
      start(job, key);
    }
  }

  core::NodeId id_;
  sim::Simulator& sim_;
  sched::PolicyPtr policy_;
  sched::AbortPolicyPtr abort_;
  PreemptionMode mode_;
  std::vector<Disposal>& log_;
  std::map<Key, Job> ready_;
  Job running_{};
  Key running_key_{};
  bool busy_ = false;
  bool up_ = true;
  sim::Time started_ = 0;
  std::uint64_t token_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t preemptions_ = 0;
  std::size_t max_queue_ = 0;
};

struct Step {
  enum class Kind { Submit, Fail, Recover };
  sim::Time at;
  Kind kind;
  core::NodeId node;
  Job job;
};

struct Case {
  const char* policy;
  PreemptionMode mode;
  const char* abort;
  bool faults;
};

std::string describe(const Case& c, std::uint64_t seed) {
  return std::string(c.policy) +
         (c.mode == PreemptionMode::Preemptive ? "/preemptive/" : "/np/") +
         c.abort + (c.faults ? "/faults" : "") + " seed " +
         std::to_string(seed);
}

/// A random script on a 1/8 time grid, so submissions often coincide with
/// completions. Deadlines and estimates are drawn from small sets that
/// include -0.0 and +0.0, so every policy sees equal and signed-zero keys.
std::vector<Step> make_script(std::uint64_t seed, std::size_t nodes,
                              bool faults) {
  std::mt19937_64 rng(seed);
  auto pick = [&rng](std::uint64_t n) { return rng() % n; };
  auto grid = [&pick](std::uint64_t n, double unit) {
    return static_cast<double>(pick(n)) * unit;
  };
  const double zeros[] = {-0.0, +0.0};
  std::vector<Step> steps;
  for (sched::JobId id = 1; id <= 240; ++id) {
    Step s{grid(240, 0.125), Step::Kind::Submit,
           static_cast<core::NodeId>(pick(nodes)), Job{}};
    Job& job = s.job;
    job.id = id;
    job.node = s.node;
    job.priority = pick(4) == 0 ? core::PriorityClass::Elevated
                                : core::PriorityClass::Normal;
    job.exec = 0.25 * static_cast<double>(1 + pick(8));
    switch (pick(4)) {
      case 0: job.pex = zeros[pick(2)]; break;
      case 1: job.pex = 0.5; break;
      default: job.pex = job.exec; break;
    }
    switch (pick(4)) {
      case 0: job.deadline = zeros[pick(2)]; break;
      case 1: job.deadline = 4.0; break;
      default: job.deadline = s.at + grid(16, 0.5); break;
    }
    job.ultimate_deadline = job.deadline;
    steps.push_back(s);
  }
  if (faults) {
    for (int i = 0; i < 6; ++i) {
      const sim::Time at = grid(240, 0.125);
      const auto node = static_cast<core::NodeId>(pick(nodes));
      steps.push_back({at, Step::Kind::Fail, node, Job{}});
      steps.push_back(
          {at + grid(8, 0.5), Step::Kind::Recover, node, Job{}});
    }
  }
  return steps;
}

struct Outcome {
  std::vector<Disposal> log;
  std::vector<std::uint64_t> preemptions;
  std::vector<std::size_t> max_queue;
};

/// Plays `steps` on `nodes` until the simulation drains, then records each
/// node's counters in `out`.
template <class N>
void drive(sim::Simulator& sim, const std::vector<Step>& steps,
           std::vector<std::unique_ptr<N>>& nodes, Outcome& out) {
  for (const Step& s : steps) {
    N* node = nodes[s.node].get();
    const Step* step = &s;
    switch (s.kind) {
      case Step::Kind::Submit:
        sim.at(s.at, [node, step] { node->submit(step->job); });
        break;
      case Step::Kind::Fail:
        sim.at(s.at, [node, &sim] { node->fail(sim.now()); });
        break;
      case Step::Kind::Recover:
        sim.at(s.at, [node, &sim] { node->recover(sim.now()); });
        break;
    }
  }
  sim.run();
  for (const auto& n : nodes) {
    out.preemptions.push_back(n->preemptions());
    out.max_queue.push_back(n->max_queue_length());
  }
}

/// Runs `steps` on real nodes: sharing `pool` when given, each owning its
/// own pool otherwise.
Outcome run_real(const Case& c, const std::vector<Step>& steps,
                 std::size_t nodes, sched::JobPool* pool) {
  Outcome out;
  sim::Simulator sim;
  std::vector<std::unique_ptr<sched::Node>> ns;
  for (std::size_t i = 0; i < nodes; ++i) {
    const auto id = static_cast<core::NodeId>(i);
    auto policy = sched::policy_by_name(c.policy);
    auto abort = sched::abort_policy_by_name(c.abort);
    ns.push_back(pool ? std::make_unique<sched::Node>(id, sim, *pool, policy,
                                                      abort, c.mode)
                      : std::make_unique<sched::Node>(id, sim, policy, abort,
                                                      c.mode));
    ns.back()->set_completion_handler(
        [&out](const Job& job, sim::Time now, JobOutcome outcome) {
          out.log.push_back({job.node, job.id, outcome, now, job.remaining});
        });
  }
  drive(sim, steps, ns, out);
  return out;
}

Outcome run_reference(const Case& c, const std::vector<Step>& steps,
                      std::size_t nodes) {
  Outcome out;
  sim::Simulator sim;
  std::vector<std::unique_ptr<RefNode>> ns;
  for (std::size_t i = 0; i < nodes; ++i)
    ns.push_back(std::make_unique<RefNode>(
        static_cast<core::NodeId>(i), sim, sched::policy_by_name(c.policy),
        sched::abort_policy_by_name(c.abort), c.mode, out.log));
  drive(sim, steps, ns, out);
  return out;
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const char* policy : {"EDF", "MLF", "FCFS", "SJF"})
    for (PreemptionMode mode :
         {PreemptionMode::NonPreemptive, PreemptionMode::Preemptive})
      for (const char* abort : {"NoAbort", "AbortTardy"})
        for (bool faults : {false, true})
          cases.push_back({policy, mode, abort, faults});
  return cases;
}

void expect_matches_reference(std::size_t nodes, bool shared) {
  std::size_t preempted = 0, aborted = 0, failed = 0;
  for (const Case& c : all_cases()) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      SCOPED_TRACE(describe(c, seed));
      const std::vector<Step> steps = make_script(seed, nodes, c.faults);
      sched::JobPool pool;
      const Outcome real = run_real(c, steps, nodes, shared ? &pool : nullptr);
      const Outcome ref = run_reference(c, steps, nodes);
      ASSERT_EQ(real.log.size(), 240u);  // every job disposed exactly once
      ASSERT_EQ(real.log, ref.log);
      EXPECT_EQ(real.preemptions, ref.preemptions);
      EXPECT_EQ(real.max_queue, ref.max_queue);
      if (shared) EXPECT_EQ(pool.in_use(), 0u);  // every slot returned
      for (const Disposal& d : real.log) {
        aborted += d.outcome == JobOutcome::Aborted;
        failed += d.outcome == JobOutcome::Failed;
      }
      for (std::uint64_t p : real.preemptions) preempted += p;
    }
  }
  // The scripts really exercise every path.
  EXPECT_GT(preempted, 0u);
  EXPECT_GT(aborted, 0u);
  EXPECT_GT(failed, 0u);
}

TEST(NodeReadyQueue, SharedPoolNodesMatchReference) {
  expect_matches_reference(/*nodes=*/3, /*shared=*/true);
}

TEST(NodeReadyQueue, StandaloneNodeMatchesReference) {
  expect_matches_reference(/*nodes=*/1, /*shared=*/false);
}

TEST(NodeReadyQueue, EqualAndSignedZeroKeysDispatchInSubmissionOrder) {
  // -0.0 and +0.0 compare equal, so neither outranks the other: jobs 2..5
  // dispatch in submission order behind the job in service, and the
  // Elevated job 6 goes before all of them.
  sim::Simulator sim;
  sched::Node node(0, sim, sched::make_edf(), sched::make_no_abort());
  std::vector<sched::JobId> order;
  node.set_completion_handler(
      [&order](const Job& job, sim::Time, JobOutcome) {
        order.push_back(job.id);
      });
  const double deadlines[] = {1.0, +0.0, -0.0, +0.0, -0.0, 7.0};
  for (sched::JobId id = 1; id <= 6; ++id) {
    Job job;
    job.id = id;
    job.exec = 1;
    job.deadline = deadlines[id - 1];
    if (id == 6) job.priority = core::PriorityClass::Elevated;
    node.submit(job);
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<sched::JobId>{1, 6, 2, 3, 4, 5}));
}

TEST(NodeReadyQueue, SharedPoolReusesSlotsAcrossNodes) {
  // Two busy nodes take turns queueing a job: a slot freed by one node's
  // dispatch is the next slot the other node parks a job in.
  sim::Simulator sim;
  sched::JobPool pool;
  sched::Node a(0, sim, pool, sched::make_edf(), sched::make_no_abort());
  sched::Node b(1, sim, pool, sched::make_edf(), sched::make_no_abort());
  auto job_of = [](sched::JobId id) {
    Job job;
    job.id = id;
    job.exec = 1;
    job.deadline = 10;
    return job;
  };
  a.submit(job_of(1));  // in service
  b.submit(job_of(2));  // in service
  a.submit(job_of(3));  // waits in slot 0
  EXPECT_EQ(pool.in_use(), 1u);
  sim.run(1.0);  // both complete; a dispatches job 3, freeing slot 0
  EXPECT_EQ(pool.in_use(), 0u);
  b.submit(job_of(4));  // b is idle: straight into service
  b.submit(job_of(5));  // waits, reusing slot 0
  EXPECT_EQ(b.queue_length(), 1u);
  EXPECT_EQ(pool.in_use(), 1u);
  EXPECT_EQ(pool.slots(), 1u);
  sim.run();
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_EQ(pool.slots(), 1u);
}

}  // namespace

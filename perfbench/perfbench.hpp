// Shared declarations of the repo benchmark program (perfbench.cpp) and its
// layer replays (replay.cpp). See perfbench/README.md for what is measured
// and why.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dsrt/system/config.hpp"
#include "dsrt/workload/trace_io.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values);
/// First and third quartile (Python statistics.quantiles(n=4), exclusive).
std::pair<double, double> quartiles(std::vector<double> values);

/// In-memory span log of the traced invocation: one record per timed
/// region (name, start, end, parent), written out as JSON at exit.
class Spans {
 public:
  Spans() : origin_(Clock::now()) {}
  /// Opens a span under `parent` (-1 = root) and returns its id.
  int open(std::string name, int parent);
  void close(int id);
  void write_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// The offered inputs of a traced run, read back from its captured
/// workload trace (a prefix is enough for the replays).
struct Capture {
  std::vector<dsrt::workload::TraceLocalRecord> locals;
  std::vector<dsrt::workload::TraceGlobalRecord> globals;
};

/// Reads at most `max_locals` / `max_globals` records of a v1 trace
/// (workload::Trace::load reads all of it, which at k=4096 means ~1 GB of
/// eligible-node ids).
Capture read_capture(const std::string& path, std::size_t max_locals,
                     std::size_t max_globals);

// Every replay spends about `budget_s` wall-clock seconds.

/// sim: hold-model churn (pop earliest, push one) on an EventQueue kept at
/// `depth` pending events in the adaptive layout. Returns ns per queue op
/// (a pop or a push).
double replay_queue(std::size_t depth, double budget_s);

struct LayerCost {
  double ns_per_op = 0;         ///< inclusive replay time per layer op
  double queue_ops_per_op = 0;  ///< event-queue ops the replay itself made
  double queue_depth = 0;       ///< pending events while replaying
};

/// sched: Node::submit -> dispatch -> completion cycles on one node with
/// the workload's policy and preemption mode, the ready queue held at
/// `ready_depth`, jobs taken from the captured local tasks.
LayerCost replay_sched(const dsrt::system::Config& cfg, const Capture& cap,
                       std::size_t ready_depth, double budget_s);

struct TaskCost {
  double fill_ns = 0;      ///< TaskSpecBuilder refill per global task
  double instance_ns = 0;  ///< TaskInstance reset/start/completions per task
  double leaves = 0;       ///< mean simple subtasks per global task
};

/// core task/assigner: refills each captured global spec through a
/// TaskSpecBuilder, then drives a TaskInstance through reset, start and
/// one on_leaf_complete per leaf with the workload's ssp/psp.
TaskCost replay_task(const dsrt::system::Config& cfg, const Capture& cap,
                     double budget_s);

/// core placement + load model: drives TaskInstance over the captured
/// specs twice per sample, once with the workload's PlacementPolicy and load
/// model over a LoadBoard of k nodes and once without, so the instance's
/// own placement path (eligible-set candidates, distinct-site exclusion,
/// place()) is the difference. Returns ns per decision; 0 when the workload
/// has no placement policy.
double replay_placement(const dsrt::system::Config& cfg, const Capture& cap,
                        std::uint64_t seed, double budget_s);

/// workload: the run's LocalTaskSource/GlobalTaskSource generators driven
/// alone on a bare Simulator into a counting sink. ns_per_op is per
/// released task.
LayerCost replay_workload(const dsrt::system::Config& cfg, double budget_s);

/// system metrics: ClassMetrics::record_completed over the captured local
/// tasks. Returns ns per record.
double replay_metrics(const Capture& cap, double budget_s);

}  // namespace perfbench

#pragma once

#include <cstddef>
#include <vector>

#include "dsrt/core/task_spec.hpp"
#include "dsrt/sim/distribution.hpp"
#include "dsrt/sim/rng.hpp"
#include "dsrt/workload/pex_error.hpp"

namespace dsrt::workload {

/// Structure of the global-task population.
enum class GlobalShape : std::uint8_t {
  Serial,          ///< Section 4: T = [T1 T2 ... Tm]
  Parallel,        ///< Section 5: T = [T1 || ... || Tm] on distinct nodes
  SerialParallel,  ///< Section 6: serial chain with parallel stages
};

/// Reusable scratch for the allocation-free `fill_*` makers below; owns the
/// distinct-site sample and its swap map. Keep one alive per stream
/// (GlobalTaskSource does) so repeated fills never touch the allocator.
struct ShapeScratch {
  std::vector<core::NodeId> sites;
  sim::PartialShuffle shuffle;
};

/// Samples `count` distinct node ids from [0, nodes) into `scratch.sites`.
/// Requires count <= nodes. Partial Fisher-Yates (draw i is
/// `i + rng.below(nodes - i)`), replayed sparsely: O(count) time and space
/// whatever `nodes` is, and no allocation once the scratch is warm.
void sample_distinct_nodes_into(std::size_t nodes, std::size_t count,
                                sim::Rng& rng, ShapeScratch& scratch);

// The `fill_*` family emits one task of the given shape into `builder`
// (already `reset()` onto the output spec; the caller calls `finish()`).
// Each fill is the single source of truth for its shape's draw sequence,
// so the common-random-numbers discipline cannot drift between callers.
// Once the output spec's buffers are warm, a fill performs zero heap
// allocations; this is the arrival hot path of `GlobalTaskSource`.
//
// Every fill takes a `defer_placement` flag. The RNG draw sequence is
// *identical* either way (nodes are always drawn, preserving the
// common-random-numbers discipline across placement policies and every
// existing golden); with the flag set each leaf additionally carries its
// eligible set — any compute node for serial stages and parallel-group
// members (the group's distinct-site constraint is enforced by the
// placement engine), the link-node range for transmission stages — and
// the generation-time draw becomes a mere hint that `--placement=static`
// reproduces verbatim.

/// The SSP workload's task shape (Section 4): T = [T1 T2 ... Tm], each
/// subtask's execution time drawn from `exec_dist`, execution node drawn
/// uniformly (with replacement) from the `nodes` nodes.
void fill_serial_task(core::TaskSpecBuilder& builder, std::size_t subtasks,
                      std::size_t nodes, const sim::Distribution& exec_dist,
                      const PexErrorModel& pex_error, sim::Rng& rng,
                      bool defer_placement);

/// The PSP workload's task shape (Section 5): T = [T1 || T2 || ... || Tm]
/// at m *different* nodes. Requires subtasks <= nodes.
void fill_parallel_task(core::TaskSpecBuilder& builder, std::size_t subtasks,
                        std::size_t nodes, const sim::Distribution& exec_dist,
                        const PexErrorModel& pex_error, sim::Rng& rng,
                        bool defer_placement, ShapeScratch& scratch);

/// Parameters of the Section 6 serial-parallel shape: a serial chain of
/// `stages` stages; each stage is, with probability `parallel_prob`, a
/// parallel group of `parallel_width` simple subtasks on distinct nodes,
/// otherwise a single simple subtask.
struct SerialParallelShape {
  std::size_t stages = 4;
  double parallel_prob = 0.5;
  std::size_t parallel_width = 3;

  /// Expected number of simple subtasks per task.
  double expected_leaves() const;
  /// Expected critical-path execution time when subtask times are
  /// exponential with mean `mean_exec` (uses E[max of n iid Exp] =
  /// mean * H_n).
  double expected_critical_path(double mean_exec) const;
};

/// One Section 6 serial-parallel task.
void fill_serial_parallel_task(core::TaskSpecBuilder& builder,
                               const SerialParallelShape& shape,
                               std::size_t nodes,
                               const sim::Distribution& exec_dist,
                               const PexErrorModel& pex_error, sim::Rng& rng,
                               bool defer_placement, ShapeScratch& scratch);

/// Section 6 shape with Section 3.2 network modeling: a transmission
/// subtask (on a uniformly chosen link node, ids nodes..nodes+link_nodes-1,
/// service from `comm_dist`) is inserted between consecutive stages —
/// results of a stage must reach the next stage's site(s) before it can
/// start. Requires link_nodes >= 1.
void fill_serial_parallel_task_with_comm(
    core::TaskSpecBuilder& builder, const SerialParallelShape& shape,
    std::size_t nodes, std::size_t link_nodes,
    const sim::Distribution& exec_dist, const sim::Distribution& comm_dist,
    const PexErrorModel& pex_error, sim::Rng& rng, bool defer_placement,
    ShapeScratch& scratch);

/// Section 3.2's treatment of the network: "even the communication network
/// is considered a resource and is subsumed as one or more processing
/// nodes". Emits T = [T1 C1 T2 C2 ... Tm]: compute subtasks on the k
/// compute nodes (ids 0..nodes-1) with a transmission subtask between
/// consecutive stages, placed on a uniformly chosen link node (ids
/// nodes..nodes+link_nodes-1) with service from `comm_dist`.
/// Requires link_nodes >= 1 and subtasks >= 1.
void fill_serial_task_with_comm(core::TaskSpecBuilder& builder,
                                std::size_t subtasks, std::size_t nodes,
                                std::size_t link_nodes,
                                const sim::Distribution& exec_dist,
                                const sim::Distribution& comm_dist,
                                const PexErrorModel& pex_error, sim::Rng& rng,
                                bool defer_placement);

/// n-th harmonic number H_n = 1 + 1/2 + ... + 1/n (mean of the max of n iid
/// exponentials in units of their mean).
double harmonic(std::size_t n);

}  // namespace dsrt::workload

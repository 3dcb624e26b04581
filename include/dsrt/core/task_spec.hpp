#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dsrt/core/node_set.hpp"
#include "dsrt/core/task.hpp"

namespace dsrt::core {

/// Kind of a vertex in a serial-parallel task tree.
enum class SpecKind : std::uint8_t { Simple, Serial, Parallel };

/// One vertex of a flattened serial-parallel task tree. Vertices are stored
/// in depth-first pre-order (vertex 0 is the root; every child has a larger
/// index than its parent), children live in a shared pool owned by the
/// TaskSpec, and the Section 6 aggregates (predicted duration, critical
/// path) are precomputed once when the spec is sealed. An eligible set is
/// stored in place as a range (first id, count); only an explicit id list
/// goes to the spec's eligible pool.
struct SpecVertex {
  double exec = 0;           ///< leaves: real execution time
  double pex = 0;            ///< leaves: predicted execution time
  double pred_duration = 0;  ///< pex; serial: sum, parallel: max of children
  double crit_exec = 0;      ///< exec under the same recursion
  std::int32_t parent = -1;  ///< pre-order index of the parent; -1 for root
  std::uint32_t index_in_parent = 0;
  std::uint32_t child_begin = 0;  ///< into TaskSpec child pool (groups)
  std::uint32_t child_count = 0;
  /// Leaves: first node id of the eligible range, or (elig_listed) the
  /// offset of its explicit list in the TaskSpec eligible pool.
  std::uint32_t elig_begin = 0;
  std::uint32_t elig_count = 0;   ///< 0 = bound at generation time
  NodeId node = 0;                ///< leaves: execution node (or hint)
  SpecKind kind = SpecKind::Simple;
  bool elig_listed = false;       ///< eligible set is an explicit list
};
static_assert(sizeof(SpecVertex) == 64, "SpecVertex is one cache line");

/// Immutable description of a global task's structure (Section 3.1):
/// `T = [T1 T2 ... Tn]` (serial), `T = [T1 || T2 || ... || Tn]` (parallel),
/// and arbitrary compositions thereof. Leaves are *simple subtasks* bound to
/// one execution node; inner vertices are *complex subtasks*.
///
/// Each simple subtask carries its real execution time `ex` (known to the
/// simulator that generates it, not to the schedulers) and the predicted
/// execution time `pex` available to the deadline-assignment strategies.
///
/// A leaf is either *bound* (today's fixed node — the degenerate singleton
/// eligible set) or *placeable*: it additionally carries the set of nodes
/// it may execute on, and the binding is deferred to dispatch time, when a
/// `PlacementPolicy` picks a node from the eligible set using current
/// system state. Placeable leaves still carry a bound node — the workload
/// generator's seed-stream draw — so static placement reproduces the bound
/// behavior bit for bit.
///
/// Storage is *flat*: one pre-order vertex table plus shared pools for
/// child indices and explicit eligible-node lists (a contiguous eligible
/// range lives in its vertex, so a spec's size does not depend on how many
/// nodes a leaf may use). Specs are built only through `TaskSpecBuilder`,
/// which refills one reusable TaskSpec in place and allocates nothing once
/// the buffers reached their high-water capacity; readers walk the table
/// by pre-order index (`vertex`, `children_of`, `eligible_of`).
class TaskSpec {
 public:
  /// Empty spec; fill via `TaskSpecBuilder` before use.
  TaskSpec() = default;

  /// True for a default-constructed (or reset-but-unfinished) spec.
  bool empty() const { return vertices_.empty(); }
  /// Number of vertices (simple + complex subtasks) in the tree.
  std::size_t size() const { return vertices_.size(); }

  /// Flat accessors (pre-order index `v`; 0 = root). The task-instance
  /// layer consumes these directly — no tree walk, no per-vertex copies.
  const SpecVertex& vertex(std::size_t v) const { return vertices_[v]; }
  std::span<const SpecVertex> vertices() const { return vertices_; }
  std::span<const std::uint32_t> child_pool() const { return child_pool_; }
  /// Explicit eligible lists only; range-form sets take no pool entries.
  std::span<const NodeId> eligible_pool() const { return elig_pool_; }
  std::span<const std::uint32_t> children_of(const SpecVertex& vx) const {
    return {child_pool_.data() + vx.child_begin, vx.child_count};
  }
  EligibleSet eligible_of(const SpecVertex& vx) const {
    if (!vx.elig_listed)
      return EligibleSet::range(vx.elig_begin, vx.elig_count);
    return std::span<const NodeId>(elig_pool_.data() + vx.elig_begin,
                                   vx.elig_count);
  }

  // Whole-task readers. The ones that read the root vertex
  // (predicted_duration, critical_path_exec, to_string) throw
  // std::logic_error on an empty (default-constructed, not yet filled)
  // spec rather than reading past the vertex table.

  /// Predicted end-to-end duration: pex for leaves, sum over serial
  /// children, max over parallel children. This is the "pex" of a complex
  /// subtask that the recursive SSP/PSP decomposition of Section 6 uses.
  /// Precomputed at build time; O(1).
  double predicted_duration() const;

  /// Real end-to-end duration under the same recursion (sum/max of `ex`);
  /// the minimum possible response time of the (sub)task. O(1).
  double critical_path_exec() const;

  /// Number of simple subtasks in the tree.
  std::size_t leaf_count() const;

  /// Notation of Section 3.1, e.g. "[T@0 [T@1 || T@2] T@0]" where @n is the
  /// execution node. Useful in traces and examples.
  std::string to_string() const;

 private:
  friend class TaskSpecBuilder;

  /// Root vertex; throws std::logic_error on an empty spec.
  const SpecVertex& root_vertex() const;

  std::vector<SpecVertex> vertices_;      ///< depth-first pre-order
  std::vector<std::uint32_t> child_pool_; ///< per-group child vertex ids
  std::vector<NodeId> elig_pool_;         ///< explicit eligible lists
};

/// Pre-order in-place builder of flat TaskSpecs — the arrival hot path's
/// front door. `reset()` rebinds the builder to an output spec and clears
/// it *keeping its capacity*; the shape makers then emit the topology with
/// `begin_serial`/`begin_parallel`/`leaf`/`end`, and `finish()` seals the
/// spec (materializes the child pool, computes the aggregate durations in
/// the exact left-to-right order of the old recursion, so every golden
/// survives). After the buffers' high-water marks are reached, a
/// reset→fill→finish cycle performs zero heap allocations.
///
/// The builder object itself is reusable and holds only the open-group
/// stack; keep one alive per stream (GlobalTaskSource does) so its scratch
/// survives between arrivals.
class TaskSpecBuilder {
 public:
  TaskSpecBuilder() = default;

  /// Rebinds to `out`, clearing previous contents but keeping capacity.
  void reset(TaskSpec& out);

  /// Opens a serial / parallel group as the next pre-order vertex.
  void begin_serial() { begin_group(SpecKind::Serial); }
  void begin_parallel() { begin_group(SpecKind::Parallel); }
  /// Closes the innermost open group; it must have at least one child.
  void end();

  /// Appends a bound leaf.
  void leaf(NodeId node, double exec, double pex);
  /// Appends a placeable leaf whose eligible set is the contiguous id range
  /// [first, first + count), stored in the vertex (O(1) whatever the
  /// count); `hint` must lie inside it.
  void leaf_among(NodeId hint, NodeId first, std::uint32_t count, double exec,
                  double pex);
  /// Appends a placeable leaf with an arbitrary eligible set (must be
  /// non-empty and contain `hint`). A range keeps its range form; an
  /// explicit list is copied into the spec's eligible pool.
  void leaf_among(NodeId hint, EligibleSet eligible, double exec,
                  double pex);

  /// Seals the spec: materializes child spans and computes the aggregates.
  /// All groups must be closed and the spec non-empty. Unbinds the builder.
  void finish();

 private:
  std::uint32_t add_vertex(SpecKind kind);
  void begin_group(SpecKind kind);

  TaskSpec* out_ = nullptr;
  std::vector<std::uint32_t> open_groups_;  ///< stack of open group ids
};

}  // namespace dsrt::core

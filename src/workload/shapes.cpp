#include "dsrt/workload/shapes.hpp"

#include <stdexcept>

namespace dsrt::workload {

void sample_distinct_nodes_into(std::size_t nodes, std::size_t count,
                                sim::Rng& rng, ShapeScratch& scratch) {
  if (count > nodes)
    throw std::invalid_argument(
        "sample_distinct_nodes: more subtasks than nodes");
  scratch.sites.clear();
  scratch.shuffle.reset(nodes, count);
  for (std::size_t i = 0; i < count; ++i)
    scratch.sites.push_back(
        static_cast<core::NodeId>(scratch.shuffle.next(rng)));
}

namespace {

/// Emits one leaf with an optional deferred binding: the eligible set is
/// the contiguous id range [lo, lo + count) — the compute nodes or the
/// link nodes — stored in the leaf's vertex as a range (O(1) whatever k).
/// The RNG consumption is identical for both arms — `node` was drawn by
/// the caller either way — so flipping `defer` never perturbs the seed
/// stream.
void emit_leaf_among(core::TaskSpecBuilder& b, core::NodeId node, bool defer,
                     std::size_t lo, std::size_t count,
                     const sim::Distribution& exec_dist,
                     const PexErrorModel& pex_error, sim::Rng& rng) {
  const double exec = exec_dist.sample(rng);
  const double pex = pex_error.predict(exec, rng);
  if (!defer) {
    b.leaf(node, exec, pex);
    return;
  }
  b.leaf_among(node, static_cast<core::NodeId>(lo),
               static_cast<std::uint32_t>(count), exec, pex);
}

/// One stage of the Section 6 shape: parallel group or single subtask.
void emit_sp_stage(core::TaskSpecBuilder& b, const SerialParallelShape& shape,
                   std::size_t nodes, const sim::Distribution& exec_dist,
                   const PexErrorModel& pex_error, sim::Rng& rng, bool defer,
                   ShapeScratch& scratch) {
  if (rng.uniform01() < shape.parallel_prob) {
    sample_distinct_nodes_into(nodes, shape.parallel_width, rng, scratch);
    b.begin_parallel();
    for (const auto node : scratch.sites)
      emit_leaf_among(b, node, defer, 0, nodes, exec_dist, pex_error, rng);
    b.end();
    return;
  }
  const auto node = static_cast<core::NodeId>(rng.below(nodes));
  emit_leaf_among(b, node, defer, 0, nodes, exec_dist, pex_error, rng);
}

void check_sp_shape(const SerialParallelShape& shape, std::size_t nodes) {
  if (shape.stages == 0)
    throw std::invalid_argument("fill_serial_parallel_task: no stages");
  if (shape.parallel_width == 0 || shape.parallel_width > nodes)
    throw std::invalid_argument(
        "fill_serial_parallel_task: bad parallel width");
}

}  // namespace

void fill_serial_task(core::TaskSpecBuilder& b, std::size_t subtasks,
                      std::size_t nodes, const sim::Distribution& exec_dist,
                      const PexErrorModel& pex_error, sim::Rng& rng,
                      bool defer_placement) {
  if (subtasks == 0) throw std::invalid_argument("fill_serial_task: m == 0");
  if (nodes == 0) throw std::invalid_argument("fill_serial_task: no nodes");
  b.begin_serial();
  for (std::size_t i = 0; i < subtasks; ++i) {
    const auto node = static_cast<core::NodeId>(rng.below(nodes));
    emit_leaf_among(b, node, defer_placement, 0, nodes, exec_dist, pex_error,
                    rng);
  }
  b.end();
}

void fill_parallel_task(core::TaskSpecBuilder& b, std::size_t subtasks,
                        std::size_t nodes, const sim::Distribution& exec_dist,
                        const PexErrorModel& pex_error, sim::Rng& rng,
                        bool defer_placement, ShapeScratch& scratch) {
  if (subtasks == 0) throw std::invalid_argument("fill_parallel_task: m == 0");
  sample_distinct_nodes_into(nodes, subtasks, rng, scratch);
  b.begin_parallel();
  for (const auto node : scratch.sites)
    emit_leaf_among(b, node, defer_placement, 0, nodes, exec_dist, pex_error,
                    rng);
  b.end();
}

double SerialParallelShape::expected_leaves() const {
  return static_cast<double>(stages) *
         (parallel_prob * static_cast<double>(parallel_width) +
          (1.0 - parallel_prob));
}

double SerialParallelShape::expected_critical_path(double mean_exec) const {
  return static_cast<double>(stages) * mean_exec *
         (parallel_prob * harmonic(parallel_width) + (1.0 - parallel_prob));
}

void fill_serial_parallel_task(core::TaskSpecBuilder& b,
                               const SerialParallelShape& shape,
                               std::size_t nodes,
                               const sim::Distribution& exec_dist,
                               const PexErrorModel& pex_error, sim::Rng& rng,
                               bool defer_placement, ShapeScratch& scratch) {
  check_sp_shape(shape, nodes);
  b.begin_serial();
  for (std::size_t s = 0; s < shape.stages; ++s)
    emit_sp_stage(b, shape, nodes, exec_dist, pex_error, rng, defer_placement,
                  scratch);
  b.end();
}

void fill_serial_parallel_task_with_comm(
    core::TaskSpecBuilder& b, const SerialParallelShape& shape,
    std::size_t nodes, std::size_t link_nodes,
    const sim::Distribution& exec_dist, const sim::Distribution& comm_dist,
    const PexErrorModel& pex_error, sim::Rng& rng, bool defer_placement,
    ShapeScratch& scratch) {
  check_sp_shape(shape, nodes);
  if (link_nodes == 0)
    throw std::invalid_argument(
        "fill_serial_parallel_task_with_comm: no link nodes");
  b.begin_serial();
  for (std::size_t s = 0; s < shape.stages; ++s) {
    if (s > 0) {
      const auto link = static_cast<core::NodeId>(
          nodes + static_cast<std::size_t>(rng.below(link_nodes)));
      emit_leaf_among(b, link, defer_placement, nodes, link_nodes, comm_dist,
                      pex_error, rng);
    }
    emit_sp_stage(b, shape, nodes, exec_dist, pex_error, rng, defer_placement,
                  scratch);
  }
  b.end();
}

void fill_serial_task_with_comm(core::TaskSpecBuilder& b,
                                std::size_t subtasks, std::size_t nodes,
                                std::size_t link_nodes,
                                const sim::Distribution& exec_dist,
                                const sim::Distribution& comm_dist,
                                const PexErrorModel& pex_error, sim::Rng& rng,
                                bool defer_placement) {
  if (subtasks == 0)
    throw std::invalid_argument("fill_serial_task_with_comm: m == 0");
  if (nodes == 0)
    throw std::invalid_argument("fill_serial_task_with_comm: no nodes");
  if (link_nodes == 0)
    throw std::invalid_argument("fill_serial_task_with_comm: no link nodes");
  b.begin_serial();
  for (std::size_t i = 0; i < subtasks; ++i) {
    if (i > 0) {
      const auto link = static_cast<core::NodeId>(
          nodes + static_cast<std::size_t>(rng.below(link_nodes)));
      emit_leaf_among(b, link, defer_placement, nodes, link_nodes, comm_dist,
                      pex_error, rng);
    }
    const auto node = static_cast<core::NodeId>(rng.below(nodes));
    emit_leaf_among(b, node, defer_placement, 0, nodes, exec_dist, pex_error,
                    rng);
  }
  b.end();
}

double harmonic(std::size_t n) {
  double h = 0;
  for (std::size_t i = 1; i <= n; ++i) h += 1.0 / static_cast<double>(i);
  return h;
}

}  // namespace dsrt::workload

#pragma once

#include <cstdint>

#include "dsrt/core/strategy.hpp"
#include "dsrt/core/task.hpp"
#include "dsrt/sim/time.hpp"

namespace dsrt::sched {

/// Unique identifier of a job across the whole simulation.
using JobId = std::uint64_t;

/// The unit of work a node schedules: a local task or one simple subtask of
/// a global task. Jobs are value types: a waiting job is moved into a
/// `JobPool` slot, and the node's ready queue holds only its handle.
struct Job {
  JobId id = 0;
  core::TaskClass cls = core::TaskClass::Local;
  core::PriorityClass priority = core::PriorityClass::Normal;
  /// Owning global task, as the process manager's slot-map handle
  /// (slot | generation << 32): resolving a disposal is an array index plus
  /// a generation check, not a hash lookup. 0 for local tasks. Unique per
  /// task within a run; observers are handed the stable `TaskId` instead.
  core::TaskId task = 0;
  std::uint32_t leaf = 0;      ///< leaf vertex within the owning instance
  core::NodeId node = 0;       ///< node the job was submitted to
  sim::Time release = 0;       ///< submission time at the node
  sim::Time deadline = 0;      ///< absolute (virtual) deadline
  /// End-to-end deadline of the owning task (== `deadline` for locals).
  /// Virtual deadlines drive *scheduling*; whether work is still worth
  /// doing is a question about this one (see AbortTardyUltimate).
  sim::Time ultimate_deadline = 0;
  double exec = 0;             ///< real service demand
  double pex = 0;              ///< estimate visible to the scheduler
  /// Service still owed; maintained by the node (preemptive-resume
  /// bookkeeping). 0 on submission means "full exec outstanding".
  double remaining = 0;
  /// Placements so far beyond the first (fault retries). Bounded by
  /// fault::FaultSpec::kMaxRetryBudget, so a byte is plenty.
  std::uint8_t attempts = 0;
};

/// How a node disposed of a job.
enum class JobOutcome : std::uint8_t {
  Completed,  ///< received full service
  Aborted,    ///< discarded by the abort policy before service
  Failed,     ///< orphaned by a node crash (or submitted to a down node)
};

}  // namespace dsrt::sched

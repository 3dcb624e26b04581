#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "dsrt/sched/job.hpp"

namespace dsrt::sched {

/// Parking space for the jobs waiting in node ready queues: a slot vector
/// plus a free list of recycled slot indices (the EventQueue action-slot
/// idiom). A ready queue holds only a 32-bit handle per waiting job, so
/// heap sifts move small entries and the bytes reserved per node do not
/// scale with `sizeof(Job)`.
///
/// A simulation run owns one pool and hands it to every node: the pool
/// then grows with the system-wide count of waiting jobs, which is far
/// smoother at large k than any single node's depth. Slots are recycled
/// LIFO and the free list is kept at the slot vector's capacity, so a pool
/// past its high-water mark never touches the allocator.
class JobPool {
 public:
  using Handle = std::uint32_t;

  /// Parks `job` and returns its handle (valid until `take`).
  Handle put(Job&& job) {
    if (free_.empty()) {
      const auto handle = static_cast<Handle>(slots_.size());
      slots_.push_back(std::move(job));
      // Room for every slot on the free list, grown with the slots, so
      // `take` never allocates.
      if (free_.capacity() < slots_.capacity())
        free_.reserve(slots_.capacity());
      return handle;
    }
    const Handle handle = free_.back();
    free_.pop_back();
    slots_[handle] = std::move(job);
    return handle;
  }

  /// Removes the job behind `handle` and recycles its slot.
  Job take(Handle handle) {
    free_.push_back(handle);
    return std::move(slots_[handle]);
  }

  /// Jobs currently parked.
  std::size_t in_use() const { return slots_.size() - free_.size(); }
  /// Slots ever made: the high-water mark of `in_use()`.
  std::size_t slots() const { return slots_.size(); }

  /// Raises the slot capacity to `n` (never shrinks).
  void reserve(std::size_t n) {
    slots_.reserve(n);
    free_.reserve(n);
  }

 private:
  std::vector<Job> slots_;
  std::vector<Handle> free_;
};

}  // namespace dsrt::sched

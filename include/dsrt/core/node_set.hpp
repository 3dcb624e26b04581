#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "dsrt/core/task.hpp"

namespace dsrt::core {

/// The nodes a placeable leaf may execute on. Either the contiguous id
/// range [first, first + count) — what the workload generators emit ("any
/// compute node", "any link node"), two integers however large k is — or
/// a slice of an explicit id list (hand-built specs, trace `{a|b|c}` sets),
/// kept in list order. Non-owning and cheap to copy; the list form is valid
/// as long as the list it points into.
class EligibleSet {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = NodeId;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = NodeId;

    iterator() = default;
    iterator(const EligibleSet* set, std::size_t i) : set_(set), i_(i) {}
    NodeId operator*() const { return (*set_)[i_]; }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++i_;
      return old;
    }
    bool operator==(const iterator& o) const { return i_ == o.i_; }

   private:
    const EligibleSet* set_ = nullptr;
    std::size_t i_ = 0;
  };

  /// The empty set (a bound leaf).
  EligibleSet() = default;
  /// Explicit list, iterated in list order.
  EligibleSet(std::span<const NodeId> list)
      : list_(list.data()), count_(static_cast<std::uint32_t>(list.size())) {}
  EligibleSet(const std::vector<NodeId>& list)
      : EligibleSet(std::span<const NodeId>(list)) {}
  /// Contiguous range [first, first + count), iterated ascending.
  static EligibleSet range(NodeId first, std::uint32_t count) {
    EligibleSet set;
    set.first_ = first;
    set.count_ = count;
    return set;
  }

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// True for the range form (no backing list).
  bool is_range() const { return list_ == nullptr; }
  NodeId operator[](std::size_t i) const {
    return list_ ? list_[i] : first_ + static_cast<NodeId>(i);
  }
  NodeId front() const { return (*this)[0]; }
  NodeId back() const { return (*this)[count_ - 1]; }
  bool contains(NodeId node) const {
    if (!list_) return node >= first_ && node - first_ < count_;
    return std::find(list_, list_ + count_, node) != list_ + count_;
  }

  iterator begin() const { return iterator(this, 0); }
  iterator end() const { return iterator(this, count_); }

 private:
  const NodeId* list_ = nullptr;  ///< null = range form
  NodeId first_ = 0;
  std::uint32_t count_ = 0;
};

/// The candidates of one placement decision: an eligible set minus a small
/// sorted exclusion set (the nodes simple siblings of the same parallel
/// group already occupy; on a fault retry also the nodes that are down),
/// in eligible-set order. Nothing is materialized. `size()` is computed
/// once; `operator[]` is an order statistic, O(#excluded) over a range and
/// a scan over a list; iteration skips excluded nodes in passing. A
/// decision that reads d candidates of a k-node range therefore costs
/// O(d), not O(k).
class CandidateView {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = NodeId;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = NodeId;

    iterator() = default;
    iterator(const CandidateView* view, std::size_t i) : view_(view), i_(i) {
      skip();
    }
    NodeId operator*() const { return view_->set_[i_]; }
    iterator& operator++() {
      ++i_;
      skip();
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const iterator& o) const { return i_ == o.i_; }

   private:
    void skip() {
      while (i_ < view_->set_.size() && view_->is_excluded(view_->set_[i_]))
        ++i_;
    }

    const CandidateView* view_ = nullptr;
    std::size_t i_ = 0;  ///< position in the underlying eligible set
  };

  /// No candidates.
  CandidateView() = default;
  /// `set` minus `excluded`, which must be sorted ascending without
  /// duplicates; members that are not in `set` are ignored. The view
  /// borrows both.
  CandidateView(EligibleSet set, std::span<const NodeId> excluded = {})
      : set_(set), excluded_(excluded), size_(set.size()) {
    if (excluded_.empty()) return;
    if (set_.is_range()) {
      const auto lo = std::lower_bound(excluded_.begin(), excluded_.end(),
                                       set_.front());
      const auto hi = std::lower_bound(
          lo, excluded_.end(),
          static_cast<std::uint64_t>(set_.front()) + set_.size());
      size_ -= static_cast<std::size_t>(hi - lo);
    } else {
      for (const NodeId node : set_) size_ -= is_excluded(node) ? 1 : 0;
    }
  }
  /// Every node of an explicit list.
  CandidateView(const std::vector<NodeId>& list)
      : CandidateView(EligibleSet(list)) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// The i-th candidate in eligible-set order (i < size()).
  NodeId operator[](std::size_t i) const {
    if (excluded_.empty()) return set_[i];
    if (set_.is_range()) {
      // Each excluded id at or below the running answer pushes it one up.
      NodeId node = set_.front() + static_cast<NodeId>(i);
      for (const NodeId e : excluded_) {
        if (e > node) break;
        if (e >= set_.front()) ++node;
      }
      return node;
    }
    for (const NodeId node : set_)
      if (!is_excluded(node) && i-- == 0) return node;
    return set_.front();  // unreachable for i < size()
  }
  NodeId front() const { return (*this)[0]; }
  bool contains(NodeId node) const {
    return set_.contains(node) && !is_excluded(node);
  }
  /// The eligible set the view draws from.
  const EligibleSet& set() const { return set_; }
  /// The exclusions, sorted ascending (members outside set() included).
  std::span<const NodeId> excluded() const { return excluded_; }

  iterator begin() const { return iterator(this, 0); }
  iterator end() const { return iterator(this, set_.size()); }

 private:
  bool is_excluded(NodeId node) const {
    return !excluded_.empty() &&
           std::binary_search(excluded_.begin(), excluded_.end(), node);
  }

  EligibleSet set_;
  std::span<const NodeId> excluded_;
  std::size_t size_ = 0;
};

}  // namespace dsrt::core

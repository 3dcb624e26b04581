#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dsrt::core {

/// Tournament (segment) tree over the ids 0..n-1, each holding a double
/// key. Every tree node stores the minimum key under it and how many
/// entries equal that minimum, which answers the two questions a
/// join-shortest-queue decision over an id range asks, each in O(log n):
/// "what is the smallest key in [lo, hi) and how many ids tie for it", and
/// "which id is the j-th of those ties, in id order". Re-keying one id is
/// O(log n); a rebuild from scratch is O(n).
///
/// A masked id takes part in no answer; masking is how a decision leaves
/// out the ids excluded from its candidate set. Keys are stored in an
/// order-preserving unsigned encoding, under which -0.0 and +0.0 are the
/// same key, +infinity is an ordinary (largest) key, and the mask sorts
/// above every real key. Keys are never NaN (backlogs and utilizations
/// are sums and averages of finite predicted times).
///
/// Storage is reused across rebuilds: once sized for n ids, re-keying,
/// masking and rebuilding at the same or a smaller n allocate nothing.
class MinIndex {
 public:
  /// The (minimum, tie count) of a range; `ties` is 0 for a range in which
  /// every id is masked.
  struct RangeMin {
    std::uint64_t key = kMasked;
    std::uint32_t ties = 0;
  };

  /// Rebuilds the index over ids [0, n) with key_of(id) for every id,
  /// unmasked.
  template <typename KeyFn>
  void rebuild(std::size_t n, KeyFn&& key_of) {
    n_ = n;
    leaves_ = std::bit_ceil(n == 0 ? std::size_t{1} : n);
    tree_.resize(2 * leaves_);
    keys_.resize(n);
    for (std::size_t id = 0; id < n; ++id) {
      keys_[id] = encode(key_of(id));
      tree_[leaves_ + id] = {keys_[id], 1};
    }
    for (std::size_t i = leaves_ + n; i < 2 * leaves_; ++i) tree_[i] = {};
    for (std::size_t i = leaves_ - 1; i > 0; --i)
      tree_[i] = combine(tree_[2 * i], tree_[2 * i + 1]);
  }

  /// Ids covered.
  std::size_t size() const { return n_; }

  /// Re-keys one id (id < size()).
  void set(std::size_t id, double key) {
    keys_[id] = encode(key);
    update(id, {keys_[id], 1});
  }
  /// Leaves `id` out of every answer until unmask(id).
  void mask(std::size_t id) { update(id, {}); }
  /// Restores a masked id with its current key.
  void unmask(std::size_t id) { update(id, {keys_[id], 1}); }

  /// Smallest key among the unmasked ids of [lo, hi) and how many tie for
  /// it (lo < hi <= size()).
  RangeMin min(std::size_t lo, std::size_t hi) const {
    RangeMin acc;
    for (lo += leaves_, hi += leaves_; lo < hi; lo >>= 1, hi >>= 1) {
      if (lo & 1) acc = combine(acc, tree_[lo++]);
      if (hi & 1) acc = combine(acc, tree_[--hi]);
    }
    return acc;
  }

  /// The j-th (0-based, in id order) unmasked id of [lo, hi) whose key is
  /// `key`; requires j < min(lo, hi).ties with min(lo, hi).key == key.
  std::size_t nth_min(std::size_t lo, std::size_t hi, std::uint64_t key,
                      std::uint32_t j) const {
    // The O(log n) canonical cover of [lo, hi): left pieces arrive in id
    // order, right pieces in reverse, so the right ones wait on a stack.
    std::size_t right[64];
    std::size_t stacked = 0;
    for (lo += leaves_, hi += leaves_; lo < hi; lo >>= 1, hi >>= 1) {
      if (lo & 1) {
        if (take(lo, key, j)) return descend(lo, key, j);
        ++lo;
      }
      if (hi & 1) right[stacked++] = --hi;
    }
    while (stacked > 0) {
      const std::size_t v = right[--stacked];
      if (take(v, key, j)) return descend(v, key, j);
    }
    return n_;  // unreachable under the precondition
  }

  /// The order-preserving encoding of a key: a < b iff encode(a) <
  /// encode(b), and a == b iff encode(a) == encode(b).
  static std::uint64_t encode(double key) {
    if (key == 0) key = 0;  // -0.0 == +0.0: one code for both
    const auto bits = std::bit_cast<std::uint64_t>(key);
    return bits >> 63 ? ~bits : bits | (std::uint64_t{1} << 63);
  }

  /// The code of a masked (or absent) id, above every real key.
  static constexpr std::uint64_t kMasked = ~std::uint64_t{0};

 private:
  static RangeMin combine(RangeMin a, RangeMin b) {
    if (a.key != b.key) return a.key < b.key ? a : b;
    return {a.key, a.ties + b.ties};
  }

  void update(std::size_t id, RangeMin leaf) {
    std::size_t i = leaves_ + id;
    tree_[i] = leaf;
    for (i >>= 1; i > 0; i >>= 1)
      tree_[i] = combine(tree_[2 * i], tree_[2 * i + 1]);
  }

  /// True if the j-th tie lies under tree node v; otherwise skips v's ties.
  bool take(std::size_t v, std::uint64_t key, std::uint32_t& j) const {
    if (tree_[v].key != key) return false;
    if (j < tree_[v].ties) return true;
    j -= tree_[v].ties;
    return false;
  }

  /// The id of the j-th tie under tree node v (which holds more than j).
  std::size_t descend(std::size_t v, std::uint64_t key,
                      std::uint32_t j) const {
    while (v < leaves_) {
      v *= 2;
      if (!take(v, key, j)) ++v;  // not in the left child: go right
    }
    return v - leaves_;
  }

  std::size_t n_ = 0;
  std::size_t leaves_ = 1;  ///< power of two >= n_
  /// Heap order: root at 1, the leaf of id i at leaves_ + i.
  std::vector<RangeMin> tree_;
  std::vector<std::uint64_t> keys_;  ///< every id's code, masked or not
};

}  // namespace dsrt::core

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dsrt::sim {

/// Deterministic pseudo-random generator (xoshiro256++) with cheap,
/// independent streams.
///
/// Every stochastic source in a simulation run owns its own `Rng` stream so
/// that (a) a run is a pure function of `(config, seed)` and (b) changing one
/// source (e.g. adding a workload class) does not perturb the draws of the
/// others — the common-random-numbers discipline used for variance reduction
/// in the paper's style of study.
///
/// Satisfies `std::uniform_random_bit_generator`.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Creates stream `stream` of the generator family identified by `seed`.
  /// Distinct (seed, stream) pairs yield statistically independent sequences
  /// (states are derived via SplitMix64, xoshiro's recommended seeding).
  explicit Rng(std::uint64_t seed, std::uint64_t stream = 0) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

  /// Next raw 64-bit draw.
  result_type operator()() noexcept;

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform01() noexcept;

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi) noexcept;

  /// Exponential variate with the given mean (mean > 0).
  double exponential(double mean) noexcept;

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t below(std::uint64_t n) noexcept;

 private:
  std::array<std::uint64_t, 4> s_;
};

/// Partial Fisher-Yates over the identity permutation of [0, n), replayed
/// sparsely: draw j makes exactly one `rng.below(n - j)` call and returns
/// the index the dense algorithm
///
///     idx = [0, 1, ..., n-1];
///     r = j + rng.below(n - j); swap(idx[j], idx[r]); yield idx[j];
///
/// would yield, without materializing `idx`. Only displaced positions are
/// remembered, in an open-addressing swap map holding at most one entry per
/// draw, so a sample of `count` distinct indices costs O(count) time and
/// space however large n is. The map's buffers keep their capacity across
/// `reset()`s: a warmed-up shuffle never allocates.
class PartialShuffle {
 public:
  /// Starts a new shuffle of [0, n) that will make at most `count` draws
  /// (count <= n).
  void reset(std::uint64_t n, std::uint64_t count);

  /// Next sampled index, distinct from every earlier one since reset().
  /// Throws std::logic_error past the `count` draws reserved by reset().
  std::uint64_t next(Rng& rng);

 private:
  /// Slot holding `pos` in the swap map, or the free slot it would take.
  std::size_t slot_of(std::uint64_t pos) const;

  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  std::uint64_t n_ = 0;
  std::uint64_t limit_ = 0;
  std::uint64_t drawn_ = 0;
  int shift_ = 64;                   ///< hash: top log2(capacity) bits
  std::vector<std::uint64_t> keys_;  ///< displaced positions (kEmpty = free)
  std::vector<std::uint64_t> vals_;  ///< value now at that position
};

}  // namespace dsrt::sim

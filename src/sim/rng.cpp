#include "dsrt/sim/rng.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace dsrt::sim {

namespace {

/// SplitMix64 step; used only to expand (seed, stream) into xoshiro state.
std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t v, int k) noexcept {
  return (v << k) | (v >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed, std::uint64_t stream) noexcept {
  // Mix the stream id into the seeding sequence so that streams of the same
  // seed start from unrelated SplitMix64 trajectories.
  std::uint64_t x = seed ^ (0x6a09e667f3bcc909ULL * (stream + 1));
  for (auto& word : s_) word = splitmix64(x);
  // xoshiro256++ state must not be all-zero; SplitMix64 makes this
  // astronomically unlikely, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 0x9e3779b97f4a7c15ULL;
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform01() noexcept {
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform01();
}

double Rng::exponential(double mean) noexcept {
  // Inversion; 1 - U in (0, 1] avoids log(0).
  return -mean * std::log(1.0 - uniform01());
}

std::uint64_t Rng::below(std::uint64_t n) noexcept {
  // Lemire's unbiased bounded generation.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

void PartialShuffle::reset(std::uint64_t n, std::uint64_t count) {
  n_ = n;
  limit_ = count;
  drawn_ = 0;
  // Load factor <= 1/2 keeps linear probing short.
  const std::uint64_t capacity = std::bit_ceil(std::max<std::uint64_t>(
      4, 2 * count));
  shift_ = 64 - std::countr_zero(capacity);
  keys_.assign(capacity, kEmpty);
  vals_.resize(capacity);
}

std::size_t PartialShuffle::slot_of(std::uint64_t pos) const {
  std::size_t slot = (pos * 0x9e3779b97f4a7c15ULL) >> shift_;
  while (keys_[slot] != kEmpty && keys_[slot] != pos)
    slot = (slot + 1) & (keys_.size() - 1);
  return slot;
}

std::uint64_t PartialShuffle::next(Rng& rng) {
  if (drawn_ == limit_)
    throw std::logic_error("PartialShuffle: more draws than reserved");
  const std::uint64_t j = drawn_++;
  const std::uint64_t r = j + rng.below(n_ - j);
  // swap(idx[j], idx[r]), where an unmapped position holds itself.
  // Position j is never read again (later draws use larger j, and r >= j),
  // so only r's new value is recorded.
  const std::size_t r_slot = slot_of(r);
  const std::uint64_t picked = keys_[r_slot] == r ? vals_[r_slot] : r;
  const std::size_t j_slot = slot_of(j);
  const std::uint64_t moved = keys_[j_slot] == j ? vals_[j_slot] : j;
  keys_[r_slot] = r;
  vals_[r_slot] = moved;
  return picked;
}

}  // namespace dsrt::sim

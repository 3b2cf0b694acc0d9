// Deterministic, fast pseudo-random generation.
//
// All stochastic components of the library (workload generators,
// characterization sampling, randomized tests) draw from Xoshiro256**
// seeded through SplitMix64, so every experiment is reproducible from a
// single 64-bit seed.
#pragma once

#include <cmath>
#include <cstdint>

namespace cfpm {

/// SplitMix64: used to expand a user seed into generator state.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256** 1.0 (Blackman & Vigna). Satisfies UniformRandomBitGenerator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept { return next(); }

  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double next_double() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli draw with probability p of returning true.
  bool next_bool(double p) noexcept { return next_double() < p; }

  /// next_bool(p) for `threshold == bernoulli_threshold(p)`: the same draw
  /// and the same outcome, decided by one integer compare.
  bool next_bool_below(std::uint64_t threshold) noexcept {
    return (next() >> 11) < threshold;
  }

  /// Uniform integer in [0, bound) using Lemire's method.
  std::uint64_t next_below(std::uint64_t bound) noexcept {
    if (bound == 0) return 0;
    unsigned __int128 m =
        static_cast<unsigned __int128>(next()) * static_cast<unsigned __int128>(bound);
    return static_cast<std::uint64_t>(m >> 64);
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

/// Integer form of a Bernoulli probability: ceil(p * 2^53), clamped to
/// [0, 2^53]. next_double() is x * 2^-53 for the integer x = next() >> 11,
/// and scaling by a power of two is exact, so `next_double() < p` holds
/// exactly when `x < bernoulli_threshold(p)`, for every p including NaN.
/// Workload generators compute it once per call and compare integers per
/// bit; the drawn bits are the ones next_bool(p) draws.
inline std::uint64_t bernoulli_threshold(double p) noexcept {
  constexpr double kScale = 0x1.0p53;
  if (!(p > 0.0)) return 0;  // p <= 0 or NaN: never true
  if (p >= 1.0) return std::uint64_t{1} << 53;  // always true
  return static_cast<std::uint64_t>(std::ceil(p * kScale));
}

}  // namespace cfpm

#include "support/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace cfpm {
namespace {

TEST(Xoshiro, DeterministicForSeed) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Xoshiro, DoubleInUnitInterval) {
  Xoshiro256 rng(99);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Xoshiro, BernoulliThresholdIsExact) {
  // next_double() < p must agree with (x >> 11) < bernoulli_threshold(p)
  // for every x; only x near the threshold T can disagree, so probe the
  // 53-bit draws T-1, T and T+1 with random low 11 bits.
  Xoshiro256 noise(17);
  std::vector<double> ps = {0.0,
                            0x1.0p-1074,
                            0x1.0p-53,
                            0.5,
                            std::nextafter(0.5, 0.0),
                            std::nextafter(0.5, 1.0),
                            1.0 - 0x1.0p-53,
                            1.0};
  for (int i = 0; i < 32; ++i) ps.push_back(noise.next_double());
  for (const double p : ps) {
    const std::uint64_t threshold = bernoulli_threshold(p);
    ASSERT_LE(threshold, std::uint64_t{1} << 53) << p;
    for (const std::int64_t d : {-1, 0, 1}) {
      const std::int64_t k = static_cast<std::int64_t>(threshold) + d;
      if (k < 0 || k >= (std::int64_t{1} << 53)) continue;
      const std::uint64_t x =
          (static_cast<std::uint64_t>(k) << 11) | (noise.next() & 0x7ff);
      // next_bool(p) on a draw of `x` (next_double()'s formula) against
      // next_bool_below(threshold) on the same draw.
      const bool by_double = static_cast<double>(x >> 11) * 0x1.0p-53 < p;
      const bool by_threshold = (x >> 11) < threshold;
      EXPECT_EQ(by_double, by_threshold)
          << std::hexfloat << "p " << p << " k " << k;
    }
  }
  EXPECT_EQ(bernoulli_threshold(0.0), 0u);
  EXPECT_EQ(bernoulli_threshold(-1.0), 0u);
  EXPECT_EQ(bernoulli_threshold(std::nan("")), 0u);
  EXPECT_EQ(bernoulli_threshold(1.0), std::uint64_t{1} << 53);
  EXPECT_EQ(bernoulli_threshold(2.0), std::uint64_t{1} << 53);
  EXPECT_EQ(bernoulli_threshold(0.5), std::uint64_t{1} << 52);
}

TEST(Xoshiro, NextBoolBelowDrawsLikeNextBool) {
  for (const double p : {0.0, 0.05, 0.3, 0.5, 0.999, 1.0}) {
    Xoshiro256 a(8), b(8);
    const std::uint64_t threshold = bernoulli_threshold(p);
    for (int i = 0; i < 10000; ++i) {
      ASSERT_EQ(a.next_bool(p), b.next_bool_below(threshold)) << p;
    }
  }
  // Random p almost never lands on a draw, so also aim p at the next draw
  // itself (read from a copy of the generator): p = (x + d) * 2^-53 is
  // exact, and the draw x must be true exactly when d > 0.
  Xoshiro256 rng(21);
  for (int i = 0; i < 1000; ++i) {
    Xoshiro256 peek = rng;
    const std::uint64_t x = peek.next() >> 11;
    for (const std::int64_t d : {-1, 0, 1}) {
      const double p = static_cast<double>(static_cast<std::int64_t>(x) + d) *
                       0x1.0p-53;
      Xoshiro256 a = rng, b = rng;
      EXPECT_EQ(a.next_bool(p), d > 0) << "x " << x << " d " << d;
      EXPECT_EQ(b.next_bool_below(bernoulli_threshold(p)), d > 0)
          << "x " << x << " d " << d;
    }
    rng.next();
  }
}

TEST(Xoshiro, DoubleMeanNearHalf) {
  Xoshiro256 rng(5);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Xoshiro, BernoulliMatchesProbability) {
  Xoshiro256 rng(17);
  const int n = 100000;
  int hits = 0;
  for (int i = 0; i < n; ++i) {
    if (rng.next_bool(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Xoshiro, NextBelowRespectsBound) {
  Xoshiro256 rng(23);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  EXPECT_EQ(rng.next_below(0), 0u);
  EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Xoshiro, NextBelowRoughlyUniform) {
  Xoshiro256 rng(31);
  int counts[8] = {};
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++counts[rng.next_below(8)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.125, 0.01);
  }
}

TEST(SplitMix, KnownSequenceIsStable) {
  SplitMix64 sm(0);
  const std::uint64_t first = sm.next();
  SplitMix64 sm2(0);
  EXPECT_EQ(sm2.next(), first);
  EXPECT_NE(sm.next(), first);
}

}  // namespace
}  // namespace cfpm

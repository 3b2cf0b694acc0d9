#include "stats/markov.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"
#include "support/hash.hpp"

namespace cfpm::stats {
namespace {

TEST(Feasible, Boundary) {
  EXPECT_TRUE(feasible({0.5, 0.5}));
  EXPECT_TRUE(feasible({0.5, 1.0}));   // alternating chain
  EXPECT_TRUE(feasible({0.2, 0.4}));
  EXPECT_FALSE(feasible({0.2, 0.5}));  // st > 2 sp
  EXPECT_FALSE(feasible({0.8, 0.5}));  // st > 2 (1 - sp)
  EXPECT_TRUE(feasible({0.0, 0.0}));
  EXPECT_TRUE(feasible({1.0, 0.0}));
  EXPECT_FALSE(feasible({-0.1, 0.1}));
  EXPECT_FALSE(feasible({0.5, 1.1}));
}

TEST(Markov, InfeasibleRejected) {
  EXPECT_THROW(MarkovSequenceGenerator({0.1, 0.9}, 1), ContractError);
}

struct GridParam {
  double sp;
  double st;
};

class MarkovStatisticsTest
    : public ::testing::TestWithParam<GridParam> {};

TEST_P(MarkovStatisticsTest, EmpiricalStatsMatchTargets) {
  const auto [sp, st] = GetParam();
  MarkovSequenceGenerator gen({sp, st}, 12345);
  const auto seq = gen.generate(16, 20000);
  EXPECT_NEAR(seq.signal_probability(), sp, 0.02) << "sp target " << sp;
  EXPECT_NEAR(seq.transition_probability(), st, 0.02) << "st target " << st;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MarkovStatisticsTest,
    ::testing::Values(GridParam{0.5, 0.5}, GridParam{0.5, 0.1},
                      GridParam{0.5, 0.9}, GridParam{0.2, 0.1},
                      GridParam{0.2, 0.4}, GridParam{0.8, 0.3},
                      GridParam{0.35, 0.6}, GridParam{0.65, 0.2}));

TEST(Markov, DeterministicForSeed) {
  MarkovSequenceGenerator a({0.5, 0.3}, 7);
  MarkovSequenceGenerator b({0.5, 0.3}, 7);
  const auto sa = a.generate(4, 100);
  const auto sb = b.generate(4, 100);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t t = 0; t < 100; ++t) {
      ASSERT_EQ(sa.bit(i, t), sb.bit(i, t));
    }
  }
}

TEST(Markov, SuccessiveCallsDiffer) {
  MarkovSequenceGenerator g({0.5, 0.5}, 11);
  const auto s1 = g.generate(4, 64);
  const auto s2 = g.generate(4, 64);
  bool any_diff = false;
  for (std::size_t i = 0; i < 4 && !any_diff; ++i) {
    for (std::size_t t = 0; t < 64 && !any_diff; ++t) {
      any_diff = s1.bit(i, t) != s2.bit(i, t);
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(Markov, FrozenChainWhenStZero) {
  MarkovSequenceGenerator g({0.7, 0.0}, 3);
  const auto seq = g.generate(8, 500);
  EXPECT_DOUBLE_EQ(seq.transition_probability(), 0.0);
  EXPECT_NEAR(seq.signal_probability(), 0.7, 0.2);  // only initial draw varies
}

TEST(Markov, AlternatingChainWhenStOne) {
  MarkovSequenceGenerator g({0.5, 1.0}, 3);
  const auto seq = g.generate(4, 100);
  EXPECT_DOUBLE_EQ(seq.transition_probability(), 1.0);
}

TEST(Markov, AllZerosWhenSpZero) {
  MarkovSequenceGenerator g({0.0, 0.0}, 3);
  const auto seq = g.generate(4, 100);
  EXPECT_DOUBLE_EQ(seq.signal_probability(), 0.0);
}

TEST(Markov, PinnedBoundariesNeverToggle) {
  // Regression: the boundary branches used to report flip probability 1.0
  // for the direction a pinned chain can never take (sp=1 => p01, sp=0 =>
  // p10). Pinned chains must be frozen in both directions.
  EXPECT_EQ(flip_probabilities({1.0, 0.0}),
            (std::pair<double, double>{0.0, 0.0}));
  EXPECT_EQ(flip_probabilities({0.0, 0.0}),
            (std::pair<double, double>{0.0, 0.0}));
  EXPECT_EQ(flip_probabilities({0.3, 0.0}),
            (std::pair<double, double>{0.0, 0.0}));
  for (const double sp : {0.0, 1.0}) {
    for (const std::uint64_t seed : {1u, 99u}) {
      MarkovSequenceGenerator g({sp, 0.0}, seed);
      const auto seq = g.generate(8, 1000);
      EXPECT_DOUBLE_EQ(seq.transition_probability(), 0.0);
      EXPECT_DOUBLE_EQ(seq.signal_probability(), sp);
    }
  }
}

TEST(Markov, FlipProbabilitiesMatchInteriorFormula) {
  const auto [p01, p10] = flip_probabilities({0.25, 0.3});
  EXPECT_DOUBLE_EQ(p01, 0.3 / (2.0 * 0.75));
  EXPECT_DOUBLE_EQ(p10, 0.3 / (2.0 * 0.25));
  // Alternating chain: both directions saturate at 1.
  EXPECT_EQ(flip_probabilities({0.5, 1.0}),
            (std::pair<double, double>{1.0, 1.0}));
}

// FNV-1a over every stream word of `calls` successive generate() calls.
template <class Generator>
std::uint64_t stream_digest(Generator& gen, std::size_t inputs,
                            std::size_t length, int calls) {
  std::uint64_t h = fnv1a_64("");
  for (int c = 0; c < calls; ++c) {
    const auto seq = gen.generate(inputs, length);
    for (std::size_t i = 0; i < inputs; ++i) {
      for (std::size_t k = 0; k < seq.words_per_input(); ++k) {
        h = fnv1a_64_mix(h, seq.word(i, k));
      }
    }
  }
  return h;
}

TEST(Markov, StreamDigestIsPinned) {
  // The generated bits are part of every published number (estimate and
  // chip `exact` lines, perfbench digests): any change to how the chain is
  // drawn must show up here. Cases cover length 1, the word edges 63/64/65,
  // both pinned boundaries, st = 0 and st = 1, and two successive calls.
  struct Case {
    InputStatistics stats;
    std::size_t inputs, length;
    std::uint64_t seed;
    int calls;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {{0.5, 0.5}, 4, 64, 11, 2, 0xf0654285c2f0e030ull},
      {{0.35, 0.3}, 3, 1, 5, 2, 0x57a3e9bec8b15e24ull},
      {{0.2, 0.1}, 5, 63, 3, 1, 0x6360649efbd5334full},
      {{0.65, 0.2}, 5, 64, 3, 1, 0x91de77f8f6401905ull},
      {{0.5, 0.05}, 5, 65, 3, 1, 0x2e2c934b6435d42bull},
      {{0.0, 0.0}, 3, 100, 9, 1, 0xa09d945a1cd8d6e5ull},
      {{1.0, 0.0}, 3, 100, 9, 1, 0xc07434df5d1582a6ull},
      {{0.7, 0.0}, 6, 130, 2, 1, 0xfd83e9d0fb2a77d6ull},
      {{0.5, 1.0}, 4, 200, 2, 1, 0x321c2076f01adcb2ull},
      {{0.8, 0.3}, 17, 1000, 7, 2, 0xd333deb094ce2b58ull},
  };
  for (const Case& c : cases) {
    MarkovSequenceGenerator gen(c.stats, c.seed);
    EXPECT_EQ(stream_digest(gen, c.inputs, c.length, c.calls), c.digest)
        << "sp " << c.stats.sp << " st " << c.stats.st << " inputs "
        << c.inputs << " length " << c.length << " seed " << c.seed;
  }
}

// The per-bit generators as they were before the word-at-a-time rewrite:
// a double compare per draw, a branch per flip and a set_bit per step. They
// stay here only as the reference the production generators must match bit
// for bit.
sim::InputSequence reference_markov(Xoshiro256& rng, InputStatistics stats,
                                    std::size_t num_inputs,
                                    std::size_t length) {
  const auto [p01, p10] = flip_probabilities(stats);
  sim::InputSequence seq(num_inputs, length);
  for (std::size_t i = 0; i < num_inputs; ++i) {
    bool v = rng.next_bool(stats.sp);
    seq.set_bit(i, 0, v);
    for (std::size_t t = 1; t < length; ++t) {
      if (rng.next_bool(v ? p10 : p01)) v = !v;
      seq.set_bit(i, t, v);
    }
  }
  return seq;
}

sim::InputSequence reference_burst(Xoshiro256& rng, const BurstSpec& spec,
                                   std::size_t num_inputs,
                                   std::size_t length) {
  sim::InputSequence seq(num_inputs, length);
  const auto idle = flip_probabilities(spec.idle);
  const auto active = flip_probabilities(spec.active);
  std::vector<std::uint8_t> bits(num_inputs);
  for (std::size_t i = 0; i < num_inputs; ++i) {
    bits[i] = rng.next_bool(spec.idle.sp) ? 1 : 0;
    seq.set_bit(i, 0, bits[i] != 0);
  }
  bool is_active = false;
  for (std::size_t t = 1; t < length; ++t) {
    if (is_active ? rng.next_bool(spec.exit_active)
                  : rng.next_bool(spec.enter_active)) {
      is_active = !is_active;
    }
    const auto [p01, p10] = is_active ? active : idle;
    for (std::size_t i = 0; i < num_inputs; ++i) {
      if (rng.next_bool(bits[i] ? p10 : p01)) bits[i] = bits[i] ? 0 : 1;
      seq.set_bit(i, t, bits[i] != 0);
    }
  }
  return seq;
}

void expect_same_words(const sim::InputSequence& got,
                       const sim::InputSequence& want) {
  ASSERT_EQ(got.num_inputs(), want.num_inputs());
  ASSERT_EQ(got.length(), want.length());
  for (std::size_t i = 0; i < got.num_inputs(); ++i) {
    for (std::size_t k = 0; k < got.words_per_input(); ++k) {
      ASSERT_EQ(got.word(i, k), want.word(i, k))
          << "input " << i << " word " << k;
    }
  }
}

TEST(Markov, MatchesPerBitReferenceLoop) {
  const InputStatistics points[] = {
      {0.5, 0.5}, {0.5, 0.05}, {0.35, 0.3}, {0.2, 0.4}, {0.8, 0.3},
      {0.5, 1.0}, {0.0, 0.0},  {1.0, 0.0},  {0.7, 0.0}, {0.65, 0.2},
      {0.1, 0.2}, {0.999, 0.001}};
  const std::size_t lengths[] = {1, 2, 63, 64, 65, 127, 128, 129, 1000};
  for (const InputStatistics& p : points) {
    for (const std::size_t length : lengths) {
      for (const std::size_t inputs : {1u, 5u}) {
        for (const std::uint64_t seed : {1u, 0xcf9eu}) {
          SCOPED_TRACE(::testing::Message()
                       << "sp " << p.sp << " st " << p.st << " length "
                       << length << " inputs " << inputs << " seed " << seed);
          MarkovSequenceGenerator gen(p, seed);
          Xoshiro256 rng(seed);
          for (int call = 0; call < 2; ++call) {
            expect_same_words(gen.generate(inputs, length),
                              reference_markov(rng, p, inputs, length));
          }
        }
      }
    }
  }
}

TEST(Burst, MatchesPerBitReferenceLoop) {
  BurstSpec busy;
  busy.idle = {0.35, 0.1};
  busy.active = {0.5, 1.0};
  busy.enter_active = 0.3;
  busy.exit_active = 0.2;
  for (const BurstSpec& spec : {BurstSpec{}, busy}) {
    for (const std::size_t length : {1u, 2u, 63u, 64u, 65u, 129u, 2000u}) {
      for (const std::size_t inputs : {1u, 7u}) {
        SCOPED_TRACE(::testing::Message()
                     << "length " << length << " inputs " << inputs);
        BurstSequenceGenerator gen(spec, 4);
        Xoshiro256 rng(4);
        for (int call = 0; call < 2; ++call) {
          expect_same_words(gen.generate(inputs, length),
                            reference_burst(rng, spec, inputs, length));
        }
      }
    }
  }
}

TEST(Burst, PhaseModulatedActivity) {
  stats::BurstSpec spec;
  spec.idle = {0.5, 0.02};
  spec.active = {0.5, 0.6};
  spec.enter_active = 0.05;
  spec.exit_active = 0.05;
  BurstSequenceGenerator gen(spec, 7);
  const auto seq = gen.generate(8, 20000);
  // Roughly half the time active (symmetric phase chain); overall st lies
  // strictly between the two phases' targets.
  EXPECT_NEAR(gen.last_active_fraction(), 0.5, 0.15);
  const double st = seq.transition_probability();
  EXPECT_GT(st, 0.05);
  EXPECT_LT(st, 0.55);
}

TEST(Burst, MostlyIdleWorkloadHasLowActivity) {
  stats::BurstSpec spec;  // defaults: rare bursts
  BurstSequenceGenerator gen(spec, 11);
  const auto seq = gen.generate(8, 20000);
  EXPECT_LT(gen.last_active_fraction(), 0.4);
  EXPECT_LT(seq.transition_probability(), 0.3);
  EXPECT_NEAR(seq.signal_probability(), 0.5, 0.1);
}

TEST(Burst, DeterministicAndValidated) {
  stats::BurstSpec spec;
  BurstSequenceGenerator a(spec, 3), b(spec, 3);
  const auto sa = a.generate(4, 200);
  const auto sb = b.generate(4, 200);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t t = 0; t < 200; ++t) {
      ASSERT_EQ(sa.bit(i, t), sb.bit(i, t));
    }
  }
  stats::BurstSpec bad;
  bad.active = {0.1, 0.9};  // infeasible phase
  EXPECT_THROW(BurstSequenceGenerator(bad, 1), ContractError);
}

TEST(Burst, StreamDigestIsPinned) {
  // Same contract as Markov.StreamDigestIsPinned for the phase-modulated
  // generator (examples/bursty_workload prints numbers drawn from it).
  stats::BurstSpec busy;
  busy.enter_active = 0.3;
  busy.exit_active = 0.2;
  busy.active = {0.5, 1.0};
  BurstSequenceGenerator a(stats::BurstSpec{}, 5);
  EXPECT_EQ(stream_digest(a, 9, 1000, 2), 0x5999ba31c5d6c724ull);
  BurstSequenceGenerator b(busy, 6);
  EXPECT_EQ(stream_digest(b, 3, 65, 2), 0x9f4651a73178a0abull);
  BurstSequenceGenerator c(busy, 7);
  EXPECT_EQ(stream_digest(c, 70, 1, 1), 0xd89eb42cb0eaea24ull);
}

TEST(EvaluationGrid, AllFeasibleAndNonEmpty) {
  const auto grid = evaluation_grid();
  EXPECT_GE(grid.size(), 25u);
  for (const auto& s : grid) {
    EXPECT_TRUE(feasible(s)) << s.sp << "," << s.st;
  }
}

TEST(EvaluationGrid, Fig7aSweepIsSpHalf) {
  const auto sweep = fig7a_sweep();
  EXPECT_EQ(sweep.size(), 19u);
  for (const auto& s : sweep) {
    EXPECT_DOUBLE_EQ(s.sp, 0.5);
    EXPECT_TRUE(feasible(s));
  }
  EXPECT_NEAR(sweep.front().st, 0.05, 1e-12);
  EXPECT_NEAR(sweep.back().st, 0.95, 1e-12);
}

}  // namespace
}  // namespace cfpm::stats

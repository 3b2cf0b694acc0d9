#include "stats/markov.hpp"

#include <algorithm>
#include <tuple>

#include "support/assert.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace cfpm::stats {

bool feasible(const InputStatistics& s) noexcept {
  if (s.sp < 0.0 || s.sp > 1.0 || s.st < 0.0 || s.st > 1.0) return false;
  // st <= 2 sp (1 can only toggle to 0 as often as 1s occur) and symmetric.
  return s.st <= 2.0 * s.sp + 1e-12 && s.st <= 2.0 * (1.0 - s.sp) + 1e-12;
}

std::pair<double, double> flip_probabilities(const InputStatistics& s) noexcept {
  // A pinned chain (st = 0, or sp at a boundary where feasibility forces
  // st = 0) never flips in either direction. The boundary cases used to
  // report 1.0 for the direction the chain cannot take — harmless to the
  // generators (the pinned state never consults it) but wrong for anyone
  // inspecting the chain, so both probabilities are 0 there.
  if (s.st <= 0.0 || s.sp <= 0.0 || s.sp >= 1.0) return {0.0, 0.0};
  const double p01 = s.st / (2.0 * (1.0 - s.sp));
  const double p10 = s.st / (2.0 * s.sp);
  return {std::min(p01, 1.0), std::min(p10, 1.0)};
}

namespace {

// {P(0->1), P(1->0)} as bernoulli_threshold()s: the generators compare
// integers per draw and draw the bits next_bool() would.
std::pair<std::uint64_t, std::uint64_t> flip_thresholds(
    const InputStatistics& s) {
  const auto [p01, p10] = flip_probabilities(s);
  return {bernoulli_threshold(p01), bernoulli_threshold(p10)};
}

// Metered per call, not per bit: the per-bit loops stay metric-free.
void meter_generate(std::size_t num_inputs, std::size_t length) {
  static const metrics::Counter c_call("stats.generate.call");
  static const metrics::Counter c_bit("stats.generate.bit");
  c_call.add();
  c_bit.add(num_inputs * length);
}

}  // namespace

MarkovSequenceGenerator::MarkovSequenceGenerator(InputStatistics stats,
                                                 std::uint64_t seed)
    : stats_(stats), t_start_(bernoulli_threshold(stats.sp)), rng_(seed) {
  CFPM_REQUIRE(feasible(stats));
  std::tie(t01_, t10_) = flip_thresholds(stats);
}

sim::InputSequence MarkovSequenceGenerator::generate(std::size_t num_inputs,
                                                     std::size_t length) {
  CFPM_REQUIRE(length >= 1);
  CFPM_TRACE_SPAN("stats.generate");
  meter_generate(num_inputs, length);
  sim::InputSequence seq(num_inputs, length);
  // Input-major, `length` draws per input: the stationary start, then one
  // flip draw per step. The flip threshold is a select rather than a
  // branch the predictor misses at st near 0.5. Each word fills from the
  // top with constant shifts, is aligned once and stored once. The
  // generator and thresholds are locals so they stay in registers.
  const std::uint64_t t01 = t01_;
  const std::uint64_t t10 = t10_;
  Xoshiro256 rng = rng_;
  for (std::size_t i = 0; i < num_inputs; ++i) {
    const std::span<std::uint64_t> words = seq.stream(i);
    std::uint64_t v = rng.next_bool_below(t_start_);
    std::uint64_t w = v << 63;
    std::size_t b = 1;  // bit 0 of word 0 is the start draw
    for (std::size_t k = 0; k < words.size(); ++k, b = 0) {
      const std::size_t bits = std::min<std::size_t>(64, length - 64 * k);
      for (; b < bits; ++b) {
        v ^= rng.next_bool_below(v ? t10 : t01);
        w = (w >> 1) | (v << 63);
      }
      words[k] = w >> (64 - bits);
    }
  }
  rng_ = rng;
  return seq;
}

BurstSequenceGenerator::BurstSequenceGenerator(BurstSpec spec,
                                               std::uint64_t seed)
    : spec_(spec), rng_(seed) {
  CFPM_REQUIRE(feasible(spec.idle));
  CFPM_REQUIRE(feasible(spec.active));
  CFPM_REQUIRE(spec.enter_active >= 0.0 && spec.enter_active <= 1.0);
  CFPM_REQUIRE(spec.exit_active >= 0.0 && spec.exit_active <= 1.0);
}

sim::InputSequence BurstSequenceGenerator::generate(std::size_t num_inputs,
                                                    std::size_t length) {
  CFPM_REQUIRE(length >= 1);
  CFPM_TRACE_SPAN("stats.generate");
  meter_generate(num_inputs, length);
  sim::InputSequence seq(num_inputs, length);

  // Per-phase flip thresholds (the chain of MarkovSequenceGenerator).
  const auto idle = flip_thresholds(spec_.idle);
  const auto active = flip_thresholds(spec_.active);
  const std::uint64_t t_enter = bernoulli_threshold(spec_.enter_active);
  const std::uint64_t t_exit = bernoulli_threshold(spec_.exit_active);

  // Time-major: one phase draw per step, then one flip draw per input.
  // Each input's current word accumulates in `acc` and is stored when it
  // fills or the sequence ends.
  const std::uint64_t t_start = bernoulli_threshold(spec_.idle.sp);
  std::vector<std::uint64_t> bits(num_inputs);
  std::vector<std::uint64_t> acc(num_inputs);
  for (std::size_t i = 0; i < num_inputs; ++i) {
    bits[i] = rng_.next_bool_below(t_start);
    acc[i] = bits[i];
  }
  bool is_active = false;
  std::size_t active_steps = 0;
  for (std::size_t t = 1; t < length; ++t) {
    if (t % 64 == 0) {
      for (std::size_t i = 0; i < num_inputs; ++i) {
        seq.stream(i)[t / 64 - 1] = acc[i];
        acc[i] = 0;
      }
    }
    if (rng_.next_bool_below(is_active ? t_exit : t_enter)) {
      is_active = !is_active;
    }
    if (is_active) ++active_steps;
    const auto [t01, t10] = is_active ? active : idle;
    for (std::size_t i = 0; i < num_inputs; ++i) {
      bits[i] ^= rng_.next_bool_below(bits[i] ? t10 : t01);
      acc[i] |= bits[i] << (t % 64);
    }
  }
  for (std::size_t i = 0; i < num_inputs; ++i) {
    seq.stream(i)[(length - 1) / 64] = acc[i];
  }
  last_active_fraction_ =
      length > 1 ? static_cast<double>(active_steps) / (length - 1) : 0.0;
  return seq;
}

std::vector<InputStatistics> evaluation_grid() {
  std::vector<InputStatistics> grid;
  for (double sp : {0.2, 0.35, 0.5, 0.65, 0.8}) {
    // Low transition activities come first: out-of-sample robustness at
    // small st is exactly where characterized models break down (Fig. 7a).
    grid.push_back(InputStatistics{sp, 0.05});
    for (int k = 1; k <= 9; ++k) {
      const InputStatistics s{sp, 0.1 * k};
      if (feasible(s)) grid.push_back(s);
    }
  }
  return grid;
}

std::vector<InputStatistics> fig7a_sweep() {
  std::vector<InputStatistics> sweep;
  for (int k = 1; k <= 19; ++k) {
    sweep.push_back(InputStatistics{0.5, 0.05 * k});
  }
  return sweep;
}

}  // namespace cfpm::stats

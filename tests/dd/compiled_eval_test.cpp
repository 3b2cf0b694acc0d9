// Compiled flat-array evaluation: randomized equivalence against the
// ref-counted node walk, snapshot independence from the manager, and
// bit-exact determinism of estimate_trace across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "dd/compiled.hpp"
#include "dd/manager.hpp"
#include "netlist/generators.hpp"
#include "netlist/library.hpp"
#include "power/add_model.hpp"
#include "power/baselines.hpp"
#include "stats/markov.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace cfpm {
namespace {

using dd::CompiledDd;

power::AddPowerModel random_model(int index) {
  netlist::gen::RandomLogicSpec spec;
  spec.name = "compiled_rt" + std::to_string(index);
  spec.num_inputs = 6 + index % 7;  // 6..12 inputs -> 12..24 variables
  spec.num_outputs = 2 + index % 3;
  spec.target_gates = 16 + 2 * index;
  spec.window = 6;
  spec.seed = 7000 + static_cast<std::uint64_t>(index);
  const netlist::Netlist n = netlist::gen::random_logic(spec);

  power::AddModelOptions opt;
  // Mix exact and approximated models, both collapse strategies.
  opt.max_nodes = (index % 2 == 0) ? 0 : 60;
  opt.mode = (index % 4 < 2) ? dd::ApproxMode::kAverage
                             : dd::ApproxMode::kUpperBound;
  return power::AddPowerModel::build(n, netlist::GateLibrary::standard(), opt);
}

/// Evaluates row-major `assignments` (nv bytes each) through
/// eval_packed_wide, 64 * kPackedGroups at a time; the last batch is ragged
/// unless the count divides evenly.
std::vector<double> eval_wide(const CompiledDd& c,
                              const std::vector<std::uint8_t>& assignments,
                              std::size_t nv) {
  constexpr std::size_t kGroups = CompiledDd::kPackedGroups;
  const std::size_t count = assignments.size() / nv;
  std::vector<double> out(count);
  std::vector<std::uint64_t> bits(kGroups * nv);
  std::vector<std::uint64_t> scratch;
  for (std::size_t base = 0; base < count; base += 64 * kGroups) {
    const std::size_t m = std::min(64 * kGroups, count - base);
    std::fill(bits.begin(), bits.end(), 0);
    for (std::size_t k = 0; k < m; ++k) {
      for (std::size_t v = 0; v < nv; ++v) {
        bits[kGroups * v + k / 64] |=
            static_cast<std::uint64_t>(assignments[(base + k) * nv + v])
            << (k % 64);
      }
    }
    c.eval_packed_wide(bits.data(), m, out.data() + base, scratch);
  }
  return out;
}

TEST(CompiledEval, MatchesNodeWalkOnRandomNetlistAdds) {
  Xoshiro256 rng(0xc0317ed);
  for (int c = 0; c < 20; ++c) {
    const power::AddPowerModel model = random_model(c);
    const dd::Add& f = model.function();
    const std::size_t nv = 2 * model.num_inputs();

    // kPatterns % 512 == 272: the last batch ends in a partial group.
    constexpr std::size_t kPatterns = 10000;
    std::vector<std::uint8_t> assignments(kPatterns * nv);
    for (std::uint8_t& b : assignments) {
      b = static_cast<std::uint8_t>(rng.next() & 1u);
    }
    const std::vector<double> out =
        eval_wide(model.compiled(), assignments, nv);
    for (std::size_t p = 0; p < kPatterns; ++p) {
      std::span<const std::uint8_t> a(assignments.data() + p * nv, nv);
      ASSERT_EQ(out[p], f.eval(a)) << "circuit " << c << " pattern " << p;
    }
  }
}

TEST(CompiledEval, HandlesConstantsAndBdds) {
  dd::DdManager mgr(4);
  const CompiledDd c = CompiledDd::compile(mgr.constant(2.5));
  EXPECT_EQ(c.num_internal_nodes(), 0u);
  EXPECT_EQ(c.depth(), 0u);
  for (const double v : eval_wide(c, std::vector<std::uint8_t>(3 * 4), 4)) {
    EXPECT_EQ(v, 2.5);
  }

  // A BDD compiles through its 0/1 ADD.
  const dd::Bdd f = (mgr.bdd_var(0) & mgr.bdd_var(1)) | mgr.bdd_var(3);
  std::vector<std::uint8_t> all(16 * 4);
  for (unsigned bits = 0; bits < 16; ++bits) {
    for (unsigned v = 0; v < 4; ++v) all[4 * bits + v] = (bits >> v) & 1u;
  }
  const std::vector<double> out = eval_wide(CompiledDd::compile(dd::Add(f)),
                                            all, 4);
  for (unsigned bits = 0; bits < 16; ++bits) {
    std::span<const std::uint8_t> a(all.data() + 4 * bits, 4);
    EXPECT_EQ(out[bits] != 0.0, f.eval(a)) << "bits " << bits;
  }
}

TEST(CompiledEval, SnapshotSurvivesManagerGcAndReordering) {
  dd::DdManager mgr(6);
  dd::Add f = mgr.constant(0.0);
  for (std::uint32_t i = 0; i < 6; ++i) {
    f = f + dd::Add(mgr.bdd_var(i)).times(1.0 + i);
  }
  std::vector<std::uint8_t> a(6, 1);
  const double expected = f.eval(a);

  const CompiledDd compiled = CompiledDd::compile(f);
  // Invalidate everything the snapshot could have pointed into: drop the
  // handle, churn the manager, sweep, and reorder.
  f = dd::Add();
  for (int round = 0; round < 3; ++round) {
    dd::Bdd junk = mgr.bdd_var(0) ^ mgr.bdd_var(5);
    (void)junk;
  }
  mgr.collect_garbage();
  mgr.sift();
  EXPECT_EQ(eval_wide(compiled, a, 6).front(), expected);
}

TEST(CompiledEval, EstimateTraceBitIdenticalAcrossThreadCounts) {
  const power::AddPowerModel model = random_model(13);
  const std::size_t n = model.num_inputs();
  stats::MarkovSequenceGenerator gen({0.5, 0.5}, 0x7ace);
  // > 2 chunks so the ordered reduction actually reduces.
  const sim::InputSequence seq =
      gen.generate(n, 2 * power::PowerModel::kTraceChunk + 1000);

  const power::TraceEstimate serial = model.estimate_trace(seq);
  ThreadPool pool2(2), pool8(8);
  const power::TraceEstimate t2 = model.estimate_trace(seq, &pool2);
  const power::TraceEstimate t8 = model.estimate_trace(seq, &pool8);
  EXPECT_EQ(serial.total_ff, t2.total_ff);
  EXPECT_EQ(serial.total_ff, t8.total_ff);
  EXPECT_EQ(serial.peak_ff, t2.peak_ff);
  EXPECT_EQ(serial.peak_ff, t8.peak_ff);

  // The batched result must equal the scalar estimate_ff path exactly
  // (same chunk boundaries, same in-chunk order, same reduction).
  const std::size_t transitions = seq.num_transitions();
  power::TraceEstimate manual;
  manual.transitions = transitions;
  std::vector<std::uint8_t> xi(n), xf(n);
  for (std::size_t begin = 0; begin < transitions;
       begin += power::PowerModel::kTraceChunk) {
    const std::size_t end =
        std::min(begin + power::PowerModel::kTraceChunk, transitions);
    double total = 0.0, peak = 0.0;
    seq.vector_at(begin, xi);
    for (std::size_t t = begin; t < end; ++t) {
      seq.vector_at(t + 1, xf);
      const double v = model.estimate_ff(xi, xf);
      total += v;
      peak = std::max(peak, v);
      xi.swap(xf);
    }
    manual.total_ff += total;
    manual.peak_ff = std::max(manual.peak_ff, peak);
  }
  EXPECT_EQ(serial.total_ff, manual.total_ff);
  EXPECT_EQ(serial.peak_ff, manual.peak_ff);
}

TEST(CompiledEval, BaselineTracesBitIdenticalAcrossThreadCounts) {
  const std::size_t n = 9;
  stats::MarkovSequenceGenerator gen({0.4, 0.3}, 0xba5e);
  const sim::InputSequence seq =
      gen.generate(n, 3 * power::PowerModel::kTraceChunk);

  std::vector<double> coeffs(n + 1);
  for (std::size_t j = 0; j <= n; ++j) {
    coeffs[j] = 0.37 * static_cast<double>(j + 1);
  }
  const power::LinearModel lin(coeffs);
  const power::ConstantModel con(4.125, n);

  ThreadPool pool2(2), pool8(8);
  for (const power::PowerModel* m :
       {static_cast<const power::PowerModel*>(&lin),
        static_cast<const power::PowerModel*>(&con)}) {
    const power::TraceEstimate serial = m->estimate_trace(seq);
    const power::TraceEstimate t2 = m->estimate_trace(seq, &pool2);
    const power::TraceEstimate t8 = m->estimate_trace(seq, &pool8);
    EXPECT_EQ(serial.total_ff, t2.total_ff) << m->name();
    EXPECT_EQ(serial.total_ff, t8.total_ff) << m->name();
    EXPECT_EQ(serial.peak_ff, t2.peak_ff) << m->name();
    EXPECT_EQ(serial.peak_ff, t8.peak_ff) << m->name();
  }
}

// A model without an estimate_block override exercises the default
// byte-gather block, which loops estimate_ff.
class ToyQuadraticModel final : public power::PowerModel {
 public:
  std::string name() const override { return "Toy"; }
  std::size_t num_inputs() const override { return 5; }
  double worst_case_ff() const override { return 25.0; }
  double estimate_ff(std::span<const std::uint8_t> xi,
                     std::span<const std::uint8_t> xf) const override {
    double toggles = 0.0;
    for (std::size_t j = 0; j < xi.size(); ++j) {
      if ((xi[j] != 0) != (xf[j] != 0)) toggles += 1.0;
    }
    return toggles * toggles;
  }
};

TEST(CompiledEval, DefaultEstimateTraceDeterministicAndMatchesAverageOver) {
  const ToyQuadraticModel model;
  stats::MarkovSequenceGenerator gen({0.5, 0.5}, 0x70facade);
  const sim::InputSequence seq =
      gen.generate(5, 2 * power::PowerModel::kTraceChunk + 17);

  const power::TraceEstimate serial = model.estimate_trace(seq);
  ThreadPool pool8(8);
  const power::TraceEstimate t8 = model.estimate_trace(seq, &pool8);
  EXPECT_EQ(serial.total_ff, t8.total_ff);
  EXPECT_EQ(serial.peak_ff, t8.peak_ff);
  EXPECT_EQ(model.average_over(seq), serial.average_ff());
  EXPECT_EQ(model.peak_over(seq), serial.peak_ff);
}

}  // namespace
}  // namespace cfpm

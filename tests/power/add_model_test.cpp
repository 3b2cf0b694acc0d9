#include "power/add_model.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "netlist/generators.hpp"
#include "netlist/transform.hpp"
#include "sim/simulator.hpp"
#include "support/governor.hpp"
#include "support/rng.hpp"

namespace cfpm::power {
namespace {

using netlist::GateLibrary;
using netlist::Netlist;

AddModelOptions exact_options() {
  AddModelOptions opt;
  opt.max_nodes = 0;  // unbounded -> exact model
  return opt;
}

/// The unbounded ADD model must reproduce the golden simulator exactly
/// (zero-delay structural power is what both compute).
void expect_model_exact(const Netlist& n, unsigned trials = 2000,
                        std::uint64_t seed = 1) {
  const GateLibrary lib = GateLibrary::standard();
  const sim::GateLevelSimulator golden(n, lib);
  const AddPowerModel model = AddPowerModel::build(n, lib, exact_options());
  EXPECT_EQ(model.build_info().approximations, 0u);

  Xoshiro256 rng(seed);
  std::vector<std::uint8_t> xi(n.num_inputs()), xf(n.num_inputs());
  const bool exhaustive = n.num_inputs() <= 5;
  const unsigned total =
      exhaustive ? (1u << (2 * n.num_inputs())) : trials;
  for (unsigned k = 0; k < total; ++k) {
    for (std::size_t i = 0; i < n.num_inputs(); ++i) {
      if (exhaustive) {
        xi[i] = (k >> i) & 1u;
        xf[i] = (k >> (n.num_inputs() + i)) & 1u;
      } else {
        xi[i] = static_cast<std::uint8_t>(rng.next_below(2));
        xf[i] = static_cast<std::uint8_t>(rng.next_below(2));
      }
    }
    ASSERT_DOUBLE_EQ(model.estimate_ff(xi, xf),
                     golden.switching_capacitance_ff(xi, xf))
        << n.name() << " pair " << k;
  }
}

TEST(AddModel, ExactOnC17) { expect_model_exact(netlist::gen::c17()); }

TEST(AddModel, ExactOnAdder) {
  expect_model_exact(netlist::gen::ripple_carry_adder(4));
}

TEST(AddModel, ExactOnComparator) {
  expect_model_exact(netlist::gen::magnitude_comparator(5));
}

TEST(AddModel, ExactOnParity) {
  expect_model_exact(netlist::gen::parity_tree(8, 1));
}

TEST(AddModel, ExactOnDecomposedAlu) {
  expect_model_exact(
      netlist::decompose_to_2input(netlist::gen::alu(3)), 1000);
}

TEST(AddModel, ExactOnMuxTwoLevel) {
  expect_model_exact(netlist::gen::mux_two_level(), 1000);
}

TEST(AddModel, BlockedOrderSameFunction) {
  const Netlist n = netlist::gen::ripple_carry_adder(3);
  const GateLibrary lib = GateLibrary::standard();
  AddModelOptions blocked = exact_options();
  blocked.order = VariableOrder::kBlocked;
  const AddPowerModel m_int = AddPowerModel::build(n, lib, exact_options());
  const AddPowerModel m_blk = AddPowerModel::build(n, lib, blocked);
  Xoshiro256 rng(3);
  std::vector<std::uint8_t> xi(n.num_inputs()), xf(n.num_inputs());
  for (int k = 0; k < 500; ++k) {
    for (std::size_t i = 0; i < n.num_inputs(); ++i) {
      xi[i] = static_cast<std::uint8_t>(rng.next_below(2));
      xf[i] = static_cast<std::uint8_t>(rng.next_below(2));
    }
    ASSERT_DOUBLE_EQ(m_int.estimate_ff(xi, xf), m_blk.estimate_ff(xi, xf));
  }
}

TEST(AddModel, InterleavedOrderIsSmallerOnAdder) {
  // The classic transition-relation result; also the ablation of DESIGN.md.
  const Netlist n = netlist::gen::ripple_carry_adder(6);
  const GateLibrary lib = GateLibrary::standard();
  AddModelOptions blocked = exact_options();
  blocked.order = VariableOrder::kBlocked;
  const AddPowerModel m_int = AddPowerModel::build(n, lib, exact_options());
  const AddPowerModel m_blk = AddPowerModel::build(n, lib, blocked);
  EXPECT_LT(m_int.size(), m_blk.size());
}

TEST(AddModel, BudgetIsRespectedDuringConstruction) {
  const Netlist n = netlist::gen::magnitude_comparator(8);
  const GateLibrary lib = GateLibrary::standard();
  AddModelOptions opt;
  opt.max_nodes = 50;
  const AddPowerModel model = AddPowerModel::build(n, lib, opt);
  EXPECT_LE(model.size(), 50u);
  EXPECT_GT(model.build_info().approximations, 0u);
}

TEST(AddModel, AverageModePreservesMeanUnderBudget) {
  // avg(a)+avg(b) == avg(a+b): the Fig. 6 construction with average
  // collapsing must keep the model's global mean equal to the exact mean.
  const Netlist n = netlist::gen::parity_tree(8, 1);
  const GateLibrary lib = GateLibrary::standard();
  const AddPowerModel exact = AddPowerModel::build(n, lib, exact_options());
  AddModelOptions opt;
  opt.max_nodes = 20;
  opt.mode = dd::ApproxMode::kAverage;
  const AddPowerModel small = AddPowerModel::build(n, lib, opt);
  EXPECT_LE(small.size(), 20u);
  EXPECT_NEAR(small.average_estimate_ff(), exact.average_estimate_ff(),
              1e-6 * exact.average_estimate_ff());
}

TEST(AddModel, UpperBoundModeDominatesGolden) {
  const Netlist n = netlist::gen::mux_two_level();
  const GateLibrary lib = GateLibrary::standard();
  const sim::GateLevelSimulator golden(n, lib);
  AddModelOptions opt;
  opt.max_nodes = 60;
  opt.mode = dd::ApproxMode::kUpperBound;
  const AddPowerModel bound = AddPowerModel::build(n, lib, opt);
  EXPECT_TRUE(bound.is_upper_bound());

  Xoshiro256 rng(5);
  std::vector<std::uint8_t> xi(n.num_inputs()), xf(n.num_inputs());
  for (int k = 0; k < 3000; ++k) {
    for (std::size_t i = 0; i < n.num_inputs(); ++i) {
      xi[i] = static_cast<std::uint8_t>(rng.next_below(2));
      xf[i] = static_cast<std::uint8_t>(rng.next_below(2));
    }
    ASSERT_GE(bound.estimate_ff(xi, xf) + 1e-9,
              golden.switching_capacitance_ff(xi, xf))
        << "pair " << k;
  }
  // The bound is also never looser than the sum of all loads.
  EXPECT_LE(bound.max_estimate_ff(), golden.total_gate_load_ff() + 1e-9);
}

TEST(AddModel, CompressShrinksAndStaysConservative) {
  const Netlist n = netlist::gen::magnitude_comparator(6);
  const GateLibrary lib = GateLibrary::standard();
  AddModelOptions opt = exact_options();
  opt.mode = dd::ApproxMode::kUpperBound;
  const AddPowerModel exact = AddPowerModel::build(n, lib, opt);
  const AddPowerModel small = exact.compress(10);
  EXPECT_LE(small.size(), 10u);
  Xoshiro256 rng(7);
  std::vector<std::uint8_t> xi(n.num_inputs()), xf(n.num_inputs());
  for (int k = 0; k < 1000; ++k) {
    for (std::size_t i = 0; i < n.num_inputs(); ++i) {
      xi[i] = static_cast<std::uint8_t>(rng.next_below(2));
      xf[i] = static_cast<std::uint8_t>(rng.next_below(2));
    }
    ASSERT_GE(small.estimate_ff(xi, xf) + 1e-9, exact.estimate_ff(xi, xf));
  }
}

TEST(AddModel, CompressToConstantEstimator) {
  const Netlist n = netlist::gen::c17();
  const GateLibrary lib = GateLibrary::standard();
  const AddPowerModel exact = AddPowerModel::build(n, lib, exact_options());
  const AddPowerModel con = exact.compress(1, dd::ApproxMode::kAverage);
  EXPECT_EQ(con.size(), 1u);
  std::vector<std::uint8_t> v(n.num_inputs(), 0);
  EXPECT_NEAR(con.estimate_ff(v, v), exact.average_estimate_ff(), 1e-9);
}

TEST(AddModel, DeltaBudgetOptionWorks) {
  const Netlist n = netlist::gen::parity_tree(12, 1);
  const GateLibrary lib = GateLibrary::standard();
  AddModelOptions opt;
  opt.max_nodes = 200;
  opt.delta_max_nodes = 64;
  const AddPowerModel model = AddPowerModel::build(n, lib, opt);
  EXPECT_LE(model.size(), 200u);
}

TEST(AddModel, PostHocApproximationOption) {
  const Netlist n = netlist::gen::magnitude_comparator(5);
  const GateLibrary lib = GateLibrary::standard();
  AddModelOptions opt;
  opt.max_nodes = 30;
  opt.approximate_during_construction = false;
  const AddPowerModel model = AddPowerModel::build(n, lib, opt);
  EXPECT_LE(model.size(), 30u);
}

TEST(AddModel, ReorderingDisabledStillMeetsBudget) {
  const Netlist n = netlist::gen::magnitude_comparator(6);
  const GateLibrary lib = GateLibrary::standard();
  AddModelOptions opt;
  opt.max_nodes = 60;
  opt.reorder_passes = 0;
  const AddPowerModel model = AddPowerModel::build(n, lib, opt);
  EXPECT_LE(model.size(), 60u);
  EXPECT_EQ(model.build_info().reorder_runs, 1u);  // counter of final stage
}

TEST(AddModel, ReorderingShrinksOrEqualsModels) {
  // With sifting enabled the final model is never larger than the budget,
  // and for exact builds the sifted manager preserves every estimate.
  const Netlist n = netlist::gen::mcnc_like("cm85");
  const GateLibrary lib = GateLibrary::uniform(5.0, 10.0);
  AddModelOptions opt;
  opt.max_nodes = 0;
  const AddPowerModel model = AddPowerModel::build(n, lib, opt);
  std::vector<std::uint8_t> xi(n.num_inputs()), xf(n.num_inputs());
  Xoshiro256 rng(1);
  std::vector<std::pair<std::vector<std::uint8_t>, double>> samples;
  for (int k = 0; k < 64; ++k) {
    std::vector<std::uint8_t> bits(2 * n.num_inputs());
    for (auto& b : bits) b = static_cast<std::uint8_t>(rng.next_below(2));
    for (std::size_t i = 0; i < n.num_inputs(); ++i) {
      xi[i] = bits[2 * i];
      xf[i] = bits[2 * i + 1];
    }
    samples.emplace_back(bits, model.estimate_ff(xi, xf));
  }
  const std::size_t before = model.size();
  model.function().manager()->sift();
  EXPECT_LE(model.size(), before);
  for (const auto& [bits, expect] : samples) {
    for (std::size_t i = 0; i < n.num_inputs(); ++i) {
      xi[i] = bits[2 * i];
      xf[i] = bits[2 * i + 1];
    }
    ASSERT_DOUBLE_EQ(model.estimate_ff(xi, xf), expect);
  }
}

TEST(AddModel, EvaluationIgnoresIrrelevantStatistics) {
  // A model built once gives identical answers regardless of workload
  // statistics: accuracy cannot depend on input statistics by construction.
  const Netlist n = netlist::gen::c17();
  const GateLibrary lib = GateLibrary::standard();
  const AddPowerModel model = AddPowerModel::build(n, lib, exact_options());
  const std::vector<std::uint8_t> a{1, 0, 1, 0, 1};
  const std::vector<std::uint8_t> b{0, 1, 1, 0, 0};
  const double first = model.estimate_ff(a, b);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(model.estimate_ff(a, b), first);
  }
}

TEST(AddModel, InputSensitivityMatchesMonteCarlo) {
  const Netlist n = netlist::gen::c17();
  const GateLibrary lib = GateLibrary::standard();
  AddModelOptions opt;
  opt.max_nodes = 0;
  const AddPowerModel model = AddPowerModel::build(n, lib, opt);
  const auto symbolic = model.input_sensitivity_ff();
  ASSERT_EQ(symbolic.size(), 5u);

  // Exhaustive reference: average golden capacitance conditioned on input
  // k toggling vs staying, uniform elsewhere.
  const sim::GateLevelSimulator golden(n, lib);
  std::vector<std::uint8_t> xi(5), xf(5);
  for (unsigned k = 0; k < 5; ++k) {
    double toggle = 0.0, stable = 0.0;
    int ct = 0, cs = 0;
    for (unsigned a = 0; a < 32; ++a) {
      for (unsigned b = 0; b < 32; ++b) {
        for (unsigned i = 0; i < 5; ++i) {
          xi[i] = (a >> i) & 1u;
          xf[i] = (b >> i) & 1u;
        }
        const double c = golden.switching_capacitance_ff(xi, xf);
        if (xi[k] != xf[k]) {
          toggle += c;
          ++ct;
        } else {
          stable += c;
          ++cs;
        }
      }
    }
    const double expected = toggle / ct - stable / cs;
    EXPECT_NEAR(symbolic[k], expected, 1e-9) << "input " << k;
  }
}

TEST(AddModel, SensitivityZeroForUnusedInput) {
  // An input that drives nothing cannot move the estimate.
  Netlist n("pad");
  const auto a = n.add_input("a");
  n.add_input("unused");
  n.add_gate(netlist::GateType::kNot, {a}, "y");
  n.mark_output(n.find("y"));
  std::vector<double> loads(n.num_signals(), 0.0);
  loads[n.find("y")] = 10.0;
  AddModelOptions opt;
  opt.max_nodes = 0;
  const AddPowerModel model = AddPowerModel::build(n, loads, opt);
  const auto s = model.input_sensitivity_ff();
  ASSERT_EQ(s.size(), 2u);
  EXPECT_GT(s[0], 0.0);
  EXPECT_DOUBLE_EQ(s[1], 0.0);
}

TEST(AddModel, WorstCaseTransitionIsAWitness) {
  for (const char* name : {"cm85", "x2", "decod"}) {
    const Netlist n = netlist::gen::mcnc_like(name);
    const GateLibrary lib = GateLibrary::uniform(5.0, 10.0);
    AddModelOptions opt;
    opt.max_nodes = 0;
    const AddPowerModel model = AddPowerModel::build(n, lib, opt);
    const auto t = model.worst_case_transition();
    ASSERT_EQ(t.xi.size(), n.num_inputs());
    EXPECT_DOUBLE_EQ(model.estimate_ff(t.xi, t.xf), model.worst_case_ff())
        << name;
    // For an exact model the witness is a true maximum-power transition of
    // the golden circuit.
    const sim::GateLevelSimulator golden(n, lib);
    EXPECT_DOUBLE_EQ(golden.switching_capacitance_ff(t.xi, t.xf),
                     model.worst_case_ff())
        << name;
  }
}

TEST(AddModel, BuildInfoPopulated) {
  const Netlist n = netlist::gen::magnitude_comparator(8);
  const GateLibrary lib = GateLibrary::standard();
  AddModelOptions opt;
  opt.max_nodes = 40;
  const AddPowerModel model = AddPowerModel::build(n, lib, opt);
  EXPECT_GE(model.build_info().build_seconds, 0.0);
  EXPECT_GT(model.build_info().peak_live_nodes, 0u);
  EXPECT_NE(model.name().find("cmp8"), std::string::npos);
}

std::size_t cache_slots(const AddPowerModel& m) {
  return m.function().manager()->cache_slots();
}

std::string saved(const AddPowerModel& m) {
  std::ostringstream os;
  m.save(os);
  return os.str();
}

TEST(AddModel, FrozenModelsKeepOnlyTheCacheFloor) {
  const Netlist n = netlist::gen::magnitude_comparator(6);
  const GateLibrary lib = GateLibrary::standard();
  constexpr std::size_t kFloor = dd::DdManager::kCacheFloorSlots;
  AddModelOptions opt;
  opt.max_nodes = 30;
  const AddPowerModel built = AddPowerModel::build(n, lib, opt);
  EXPECT_EQ(cache_slots(built), kFloor);
  EXPECT_EQ(cache_slots(built.compress(10)), kFloor);
  std::istringstream is(saved(built));
  EXPECT_EQ(cache_slots(AddPowerModel::load(is)), kFloor);

  auto governor = std::make_shared<Governor>();
  governor->set_deadline(std::chrono::milliseconds(0));
  AddModelOptions expired = opt;
  expired.dd_config.governor = governor;
  const AddPowerModel fallback = AddPowerModel::build(n, lib, expired);
  ASSERT_EQ(fallback.build_info().outcome, BuildOutcome::kFallback);
  EXPECT_EQ(cache_slots(fallback), kFloor);
}

TEST(AddModel, CompressOnAFrozenManagerSavesTheSameBytes) {
  const Netlist n = netlist::gen::magnitude_comparator(6);
  const GateLibrary lib = GateLibrary::standard();
  const AddPowerModel frozen = AddPowerModel::build(n, lib, exact_options());
  const AddPowerModel warm = AddPowerModel::build(n, lib, exact_options());
  const std::size_t full = std::size_t{1} << dd::DdConfig{}.cache_log2_slots;
  for (const std::size_t m : {40u, 10u, 1u}) {
    for (const dd::ApproxMode mode :
         {dd::ApproxMode::kAverage, dd::ApproxMode::kUpperBound}) {
      // An apply regrows warm's cache (each compress freezes it again).
      const dd::Add doubled = warm.function() + warm.function();
      ASSERT_EQ(cache_slots(warm), full);
      EXPECT_DOUBLE_EQ(doubled.max_value(), 2 * warm.worst_case_ff());
      ASSERT_EQ(cache_slots(frozen), dd::DdManager::kCacheFloorSlots);
      EXPECT_EQ(saved(frozen.compress(m, mode)), saved(warm.compress(m, mode)))
          << "m " << m;
    }
  }
  EXPECT_EQ(saved(frozen), saved(warm));
}

}  // namespace
}  // namespace cfpm::power

// Self-healing parallel build: injected per-cone faults are absorbed by the
// worker retry loop, exhausted retries fall back to a serial rebuild on the
// coordinator, persistent faults walk the degradation ladder — and none of
// it may change a single bit of the resulting model.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "netlist/generators.hpp"
#include "netlist/library.hpp"
#include "power/add_model.hpp"
#include "power/cone_partition.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/rng.hpp"

namespace cfpm {
namespace {

netlist::Netlist multi_cone_netlist() {
  netlist::gen::RandomLogicSpec spec;
  spec.name = "retry_multi";
  spec.num_inputs = 7;
  spec.num_outputs = 4;  // several cone tasks to spread faults across
  spec.target_gates = 24;
  spec.window = 5;
  spec.seed = 9091;
  return netlist::gen::random_logic(spec);
}

netlist::Netlist single_cone_netlist() {
  // Every gate feeds the one output, so the partition is exactly one task
  // and fault placement is deterministic. (A one-output random_logic
  // netlist can leave gates off the output cone, which become a second
  // task.)
  return netlist::gen::parity_tree(6);
}

/// Fingerprints a model on random transitions for bitwise comparison.
std::vector<double> probe(const power::AddPowerModel& model,
                          std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint8_t> xi(model.num_inputs()), xf(model.num_inputs());
  std::vector<double> out;
  for (int p = 0; p < 64; ++p) {
    for (auto& b : xi) b = static_cast<std::uint8_t>(rng.next() & 1u);
    for (auto& b : xf) b = static_cast<std::uint8_t>(rng.next() & 1u);
    out.push_back(model.estimate_ff(xi, xf));
  }
  out.push_back(model.function().average());
  out.push_back(static_cast<double>(model.size()));
  return out;
}

/// Fast retry schedule so exhaustion tests do not sleep for real.
power::AddModelOptions fault_options(std::size_t threads) {
  power::AddModelOptions opt;
  opt.max_nodes = 0;
  opt.build_threads = threads;
  opt.cone_retry.initial_backoff = std::chrono::milliseconds(0);
  opt.cone_retry.max_backoff = std::chrono::milliseconds(0);
  return opt;
}

class BuildRetry : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!failpoint::compiled_in()) GTEST_SKIP() << "no failpoint hooks";
    failpoint::disarm_all();
  }
  void TearDown() override { failpoint::disarm_all(); }
  const netlist::GateLibrary lib_ = netlist::GateLibrary::standard();
};

TEST_F(BuildRetry, TransientConeFaultIsRetriedTransparently) {
  const netlist::Netlist n = multi_cone_netlist();
  const auto clean = power::AddPowerModel::build(n, lib_, fault_options(4));
  ASSERT_EQ(clean.build_info().outcome, power::BuildOutcome::kClean);
  ASSERT_EQ(clean.build_info().cone_retries, 0u);

  failpoint::arm_from_spec("power.cone.build=throw_bad_alloc:1");
  const auto faulted = power::AddPowerModel::build(n, lib_, fault_options(4));
  EXPECT_EQ(faulted.build_info().outcome, power::BuildOutcome::kClean);
  EXPECT_EQ(faulted.build_info().cone_retries, 1u);
  EXPECT_EQ(faulted.build_info().cone_serial_rebuilds, 0u);
  EXPECT_EQ(probe(faulted, 0xfa17), probe(clean, 0xfa17))
      << "a retried cone changed the model";
}

TEST_F(BuildRetry, ExhaustedRetriesRebuildSeriallyOnTheCoordinator) {
  const netlist::Netlist n = single_cone_netlist();
  // With a second task on another lane, the fire budget would split
  // between the tasks by timing.
  ASSERT_EQ(power::partition_gate_cones(n).size(), 1u);
  const auto clean = power::AddPowerModel::build(n, lib_, fault_options(2));

  // Default policy: 3 attempts. Budget of exactly 3 fires exhausts them,
  // parks the cone, and leaves the coordinator's serial rebuild to succeed.
  failpoint::arm_from_spec("power.cone.build=throw_resource:3");
  const auto healed = power::AddPowerModel::build(n, lib_, fault_options(2));
  EXPECT_EQ(healed.build_info().outcome, power::BuildOutcome::kClean);
  EXPECT_EQ(healed.build_info().cone_retries, 2u);
  EXPECT_EQ(healed.build_info().cone_serial_rebuilds, 1u);
  EXPECT_EQ(probe(healed, 0xfa18), probe(clean, 0xfa18))
      << "the serial rebuild changed the model";
}

TEST_F(BuildRetry, PersistentFaultWalksTheDegradationLadder) {
  const netlist::Netlist n = single_cone_netlist();
  power::AddModelOptions opt = fault_options(2);
  opt.max_nodes = 40;  // short halving ladder

  // Armed forever: worker retries, the serial rebuild, and every ladder
  // rung keep failing, so the build must surrender to the constant
  // fallback estimator — degraded, but never an exception to the caller.
  failpoint::arm_from_spec("power.cone.build=throw_resource:0");
  const auto model = power::AddPowerModel::build(n, lib_, opt);
  failpoint::disarm_all();
  EXPECT_EQ(model.build_info().outcome, power::BuildOutcome::kFallback);
  ASSERT_FALSE(model.build_info().rungs.empty());
  EXPECT_EQ(model.build_info().rungs.back().action, "fallback-constant");
  EXPECT_GT(model.worst_case_ff(), 0.0);
  // The fallback estimator is a constant: no transition dependence left.
  std::vector<std::uint8_t> a(n.num_inputs(), 0), b(n.num_inputs(), 1);
  EXPECT_DOUBLE_EQ(model.estimate_ff(a, a), model.estimate_ff(a, b));
}

TEST_F(BuildRetry, InjectedDeadlineIsNeverRetried) {
  const netlist::Netlist n = single_cone_netlist();
  power::AddModelOptions opt = fault_options(2);
  opt.degrade = false;  // surface the deadline instead of degrading

  failpoint::arm_from_spec("power.cone.build=throw_deadline:1");
  EXPECT_THROW(power::AddPowerModel::build(n, lib_, opt), DeadlineExceeded);
  // A retry would have spent more budget: exactly one fire happened.
  EXPECT_TRUE(failpoint::armed().empty());
}

TEST_F(BuildRetry, BitIdenticalAcrossThreadCountsUnderInjectedFaults) {
  const netlist::Netlist n = multi_cone_netlist();
  const auto reference =
      probe(power::AddPowerModel::build(n, lib_, fault_options(2)), 0xfa19);
  for (const std::size_t threads : {2u, 3u, 5u}) {
    failpoint::disarm_all();
    failpoint::arm_from_spec("power.cone.build=throw_bad_alloc:2");
    const auto model = power::AddPowerModel::build(n, lib_,
                                                   fault_options(threads));
    EXPECT_EQ(model.build_info().outcome, power::BuildOutcome::kClean);
    EXPECT_EQ(model.build_info().cone_retries, 2u);
    EXPECT_EQ(probe(model, 0xfa19), reference)
        << threads << " threads under faults diverged";
  }
}

}  // namespace
}  // namespace cfpm

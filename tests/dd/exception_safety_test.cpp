// Exception-safety regression tests for DdManager: a ResourceError (node
// budget) or an injected governor fault thrown from the middle of an apply
// must leave the manager fully usable -- unique table consistent with the
// reference counts, garbage collectible, and able to complete the same
// construction afterwards.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <vector>

#include "dd/approx.hpp"
#include "dd/manager.hpp"
#include "support/error.hpp"
#include "support/governor.hpp"

namespace cfpm::dd {
namespace {

/// Weighted sum  f = sum_k 2^k x_k  over `vars` variables: its ADD has one
/// terminal per assignment, so the node count grows as 2^vars -- an easy
/// way to blow any budget mid-apply.
Add weighted_sum(DdManager& mgr, std::uint32_t vars) {
  Add f = mgr.constant(0.0);
  for (std::uint32_t k = 0; k < vars; ++k) {
    f = f + Add(mgr.bdd_var(k)).times(static_cast<double>(1u << k));
  }
  return f;
}

/// The invariant every throw must preserve: each allocated node is chained
/// in exactly one unique table, live or dead alike.
void expect_table_consistent(const DdManager& mgr) {
  EXPECT_EQ(mgr.unique_table_nodes(), mgr.live_nodes() + mgr.dead_nodes());
}

TEST(ExceptionSafety, NodeBudgetThrowMidApplyLeavesManagerUsable) {
  DdConfig config;
  config.max_nodes = 400;
  config.gc_min_dead = 16;  // keep GC active at this tiny scale
  DdManager mgr(16, config);

  Add survivor = weighted_sum(mgr, 4);  // small; completes comfortably
  EXPECT_THROW(weighted_sum(mgr, 16), ResourceError);

  // The failed construction's intermediates were dereferenced on unwind.
  expect_table_consistent(mgr);

  // The handle built before the blow-up is intact and evaluable.
  std::vector<std::uint8_t> assignment(16, 1);
  EXPECT_DOUBLE_EQ(survivor.eval(assignment), 15.0);

  // After a forced GC nothing dead remains and the table shrinks to
  // exactly the externally referenced DAGs.
  mgr.collect_garbage();
  EXPECT_EQ(mgr.dead_nodes(), 0u);
  EXPECT_EQ(mgr.unique_table_nodes(), mgr.live_nodes());

  // The manager still builds new functions afterwards.
  Add again = weighted_sum(mgr, 5);
  EXPECT_DOUBLE_EQ(again.eval(assignment), 31.0);
}

TEST(ExceptionSafety, InjectedFaultThenExactRebuildSucceeds) {
  auto governor = std::make_shared<Governor>();
  DdConfig config;
  config.governor = governor;
  DdManager mgr(10, config);

  // Arm a one-shot resource fault a little way into the construction, so
  // the throw comes from allocate_node underneath a recursive apply.
  governor->inject_fault(FaultKind::kResource,
                         governor->allocation_ticks() + 50);
  EXPECT_THROW(weighted_sum(mgr, 10), ResourceError);
  expect_table_consistent(mgr);

  mgr.collect_garbage();
  EXPECT_EQ(mgr.dead_nodes(), 0u);
  EXPECT_EQ(mgr.unique_table_nodes(), mgr.live_nodes());

  // The fault disarmed itself; the very same exact build now succeeds on
  // the same manager and computes correct values.
  Add f = weighted_sum(mgr, 10);
  std::vector<std::uint8_t> assignment(10, 0);
  assignment[3] = 1;
  assignment[7] = 1;
  EXPECT_DOUBLE_EQ(f.eval(assignment), 8.0 + 128.0);
  EXPECT_GT(governor->peak_live_nodes(), 0u);
}

TEST(ExceptionSafety, InjectedCancellationUnwindsCleanly) {
  auto governor = std::make_shared<Governor>();
  DdConfig config;
  config.governor = governor;
  DdManager mgr(12, config);

  governor->inject_fault(FaultKind::kCancel,
                         governor->allocation_ticks() + 30);
  EXPECT_THROW(weighted_sum(mgr, 12), CancelledError);
  expect_table_consistent(mgr);
  mgr.collect_garbage();
  EXPECT_EQ(mgr.unique_table_nodes(), mgr.live_nodes());
}

TEST(ExceptionSafety, ThrowDuringApproximationRebuild) {
  // The approximation rebuild allocates into the same manager; an injected
  // fault there must unwind without leaking the partial rebuild.
  auto governor = std::make_shared<Governor>();
  DdConfig governed;
  governed.governor = governor;
  DdManager gmgr(12, governed);
  Add g = weighted_sum(gmgr, 12);
  governor->inject_fault(FaultKind::kResource,
                         governor->allocation_ticks() + 20);
  EXPECT_THROW(approximate_to(g, 64, ApproxMode::kUpperBound), ResourceError);
  EXPECT_EQ(gmgr.unique_table_nodes(),
            gmgr.live_nodes() + gmgr.dead_nodes());

  // Original function unharmed, manager still works: the same
  // approximation succeeds now that the fault is disarmed.
  Add approx = approximate_to(g, 64, ApproxMode::kUpperBound);
  EXPECT_LE(approx.size(), 64u);
  // Upper-bound collapse dominates pointwise.
  std::vector<std::uint8_t> assignment(12, 1);
  EXPECT_GE(approx.eval(assignment), g.eval(assignment) - 1e-9);
}

TEST(ExceptionSafety, RepeatedFaultsDoNotAccumulateLeaks) {
  // Hammer the same manager with faults at varying depths; the node
  // population must return to the baseline every time once handles drop.
  auto governor = std::make_shared<Governor>();
  DdConfig config;
  config.governor = governor;
  DdManager mgr(10, config);

  mgr.collect_garbage();
  const std::size_t baseline = [&] {
    // Terminals 0/1 plus whatever the constant pool holds.
    return mgr.live_nodes();
  }();

  for (int round = 0; round < 8; ++round) {
    governor->inject_fault(FaultKind::kResource,
                           governor->allocation_ticks() + 10 + 17 * round);
    try {
      weighted_sum(mgr, 10);
      FAIL() << "fault did not fire in round " << round;
    } catch (const ResourceError&) {
    }
    expect_table_consistent(mgr);
  }
  mgr.collect_garbage();
  EXPECT_EQ(mgr.live_nodes(), baseline);
  EXPECT_EQ(mgr.unique_table_nodes(), mgr.live_nodes());
}

std::vector<double> table_of(const Add& f, std::uint32_t vars) {
  std::vector<double> t;
  for (unsigned m = 0; m < (1u << vars); ++m) {
    std::vector<std::uint8_t> a(vars);
    for (unsigned v = 0; v < vars; ++v) a[v] = (m >> v) & 1u;
    t.push_back(f.eval(a));
  }
  return t;
}

/// Deterministic apply/ite workload over operands rebuilt on every call;
/// returns the truth table of each result.
std::vector<std::vector<double>> op_tables(DdManager& mgr,
                                           std::uint32_t vars) {
  std::vector<Add> sums;
  std::vector<Bdd> conds;
  for (std::uint32_t k = 0; k < vars; ++k) {
    const std::uint32_t a = k;
    const std::uint32_t b = (k + 3) % vars;
    const std::uint32_t c = (k + 5) % vars;
    conds.push_back((mgr.bdd_var(a) & !mgr.bdd_var(b)) ^ mgr.bdd_var(c));
    sums.push_back(Add(conds.back()).times(k + 1.0) +
                   Add(mgr.bdd_var(b) | mgr.bdd_var(c)).times(2.0 * k + 3.0));
  }
  std::vector<std::vector<double>> tables;
  for (std::uint32_t k = 0; k + 1 < vars; ++k) {
    tables.push_back(table_of(sums[k] + sums[k + 1], vars));
    tables.push_back(table_of(sums[k].max(sums[(k + 4) % vars]), vars));
    const Bdd sel = conds[k].ite(conds[k + 1], conds[(k + 2) % vars]);
    tables.push_back(table_of(Add(sel), vars));
  }
  return tables;
}

TEST(ExceptionSafety, DeadlineBetweenSiftSwapsLeavesNoStaleCacheEntry) {
  // Swaps free dead nodes and recycle their indices while the computed
  // cache still names them. A deadline can stop a reordering pass at any
  // checkpoint between two swaps, so no flush placed at the end of the
  // pass may be relied on: whatever the manager computes next must match
  // a fresh manager.
  constexpr std::uint32_t kVars = 8;
  DdManager reference(kVars);
  const auto expected = op_tables(reference, kVars);
  for (std::uint32_t stop_at = 1; stop_at < kVars; ++stop_at) {
    auto governor = std::make_shared<Governor>();
    DdConfig config;
    config.governor = governor;
    DdManager mgr(kVars, config);
    Add survivor = weighted_sum(mgr, kVars);
    const auto survivor_table = table_of(survivor, kVars);
    op_tables(mgr, kVars);  // results dropped: dead nodes, cached entries

    // The pass sifts variables in turn; the deadline expires after
    // `stop_at` of them and fires at the next variable's first checkpoint.
    try {
      for (std::uint32_t v = 0; v < kVars; ++v) {
        if (v == stop_at) governor->set_deadline(std::chrono::milliseconds(0));
        mgr.sift_variable(v);
      }
      FAIL() << "deadline did not fire";
    } catch (const DeadlineExceeded&) {
    }
    governor->clear_deadline();
    expect_table_consistent(mgr);

    EXPECT_EQ(op_tables(mgr, kVars), expected) << "stopped at " << stop_at;
    EXPECT_EQ(table_of(survivor, kVars), survivor_table);
    const auto doubled = table_of(survivor + survivor, kVars);
    for (std::size_t m = 0; m < doubled.size(); ++m) {
      EXPECT_EQ(doubled[m], 2 * survivor_table[m]);
    }
  }
}

}  // namespace
}  // namespace cfpm::dd

// In-place adjacent swap and sifting: function preservation and size wins.
#include <gtest/gtest.h>

#include <vector>

#include "dd/manager.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"

namespace cfpm::dd {
namespace {

std::vector<double> table_of(const Add& f, std::size_t vars) {
  std::vector<double> t;
  for (unsigned m = 0; m < (1u << vars); ++m) {
    std::vector<std::uint8_t> a(vars);
    for (unsigned v = 0; v < vars; ++v) a[v] = (m >> v) & 1u;
    t.push_back(f.eval(a));
  }
  return t;
}

Add random_add(DdManager& mgr, Xoshiro256& rng, std::size_t vars, int terms) {
  Add f = mgr.constant(0.0);
  for (int i = 0; i < terms; ++i) {
    Bdd v = mgr.bdd_var(static_cast<std::uint32_t>(rng.next_below(vars)));
    Bdd w = mgr.bdd_var(static_cast<std::uint32_t>(rng.next_below(vars)));
    Bdd u = mgr.bdd_var(static_cast<std::uint32_t>(rng.next_below(vars)));
    Bdd prod = rng.next_bool(0.5) ? (v & !w) : ((v ^ w) | u);
    f = f + Add(prod).times(1.0 + static_cast<double>(rng.next_below(9)));
  }
  return f;
}

TEST(Reorder, SwapPreservesFunctions) {
  constexpr std::size_t kVars = 6;
  DdManager mgr(kVars);
  Xoshiro256 rng(17);
  Add f = random_add(mgr, rng, kVars, 8);
  Add g = random_add(mgr, rng, kVars, 5);
  const auto tf = table_of(f, kVars);
  const auto tg = table_of(g, kVars);
  for (std::uint32_t level = 0; level + 1 < kVars; ++level) {
    mgr.swap_adjacent_levels(level);
    EXPECT_EQ(table_of(f, kVars), tf) << "after swap at level " << level;
    EXPECT_EQ(table_of(g, kVars), tg);
  }
}

TEST(Reorder, SwapTwiceIsIdentityOrder) {
  DdManager mgr(4);
  Bdd f = (mgr.bdd_var(0) & mgr.bdd_var(1)) | (mgr.bdd_var(2) ^ mgr.bdd_var(3));
  const std::size_t size_before = f.size();
  mgr.swap_adjacent_levels(1);
  mgr.swap_adjacent_levels(1);
  EXPECT_EQ(mgr.var_at_level(1), 1u);
  EXPECT_EQ(mgr.var_at_level(2), 2u);
  EXPECT_EQ(f.size(), size_before);
}

TEST(Reorder, SiftVariablePreservesFunction) {
  constexpr std::size_t kVars = 7;
  DdManager mgr(kVars);
  Xoshiro256 rng(23);
  Add f = random_add(mgr, rng, kVars, 10);
  const auto tf = table_of(f, kVars);
  for (std::uint32_t v = 0; v < kVars; ++v) {
    mgr.sift_variable(v);
    ASSERT_EQ(table_of(f, kVars), tf) << "after sifting variable " << v;
  }
}

TEST(Reorder, SiftShrinksBadlyOrderedMux) {
  // f = s ? a : b with order (a, b, s): 5 internal nodes; with s on top: 3.
  DdManager mgr(3);
  const std::uint32_t order[] = {1, 2, 0};  // level0=a(var1), level1=b(var2), level2=s(var0)
  mgr.set_order(order);
  Bdd s = mgr.bdd_var(0);
  Bdd a = mgr.bdd_var(1);
  Bdd b = mgr.bdd_var(2);
  Bdd f = s.ite(a, b);
  const std::size_t before = f.size();
  mgr.sift();
  EXPECT_LE(f.size(), before);
  // Function intact.
  for (unsigned m = 0; m < 8; ++m) {
    const std::uint8_t assign[3] = {static_cast<std::uint8_t>(m & 1),
                                    static_cast<std::uint8_t>((m >> 1) & 1),
                                    static_cast<std::uint8_t>((m >> 2) & 1)};
    EXPECT_EQ(f.eval(assign), (assign[0] ? assign[1] : assign[2]) != 0);
  }
}

TEST(Reorder, SiftShrinksInterleavedDependence) {
  // Function with pairwise structure f = sum (x_i AND x_{i+n/2}) is large
  // with blocked order; sifting must find a smaller arrangement.
  constexpr std::size_t kHalf = 5;
  DdManager mgr(2 * kHalf);
  Add f = mgr.constant(0.0);
  for (std::uint32_t i = 0; i < kHalf; ++i) {
    f = f + Add(mgr.bdd_var(i) & mgr.bdd_var(i + kHalf)).times(1.0);
  }
  const std::size_t before = f.size();
  const auto tf = table_of(f, 2 * kHalf);
  mgr.sift();
  EXPECT_LT(f.size(), before);
  EXPECT_EQ(table_of(f, 2 * kHalf), tf);
}

TEST(Reorder, SiftAfterGarbageDoesNotResurrectOrCrash) {
  DdManager mgr(8);
  Xoshiro256 rng(5);
  {
    Add temp = random_add(mgr, rng, 8, 12);
    EXPECT_GT(temp.size(), 1u);
  }  // temp dead
  Add keep = random_add(mgr, rng, 8, 6);
  const auto tk = table_of(keep, 8);
  mgr.sift();
  EXPECT_EQ(table_of(keep, 8), tk);
  EXPECT_EQ(mgr.dead_nodes(), 0u);  // sift() collects garbage
}

TEST(Reorder, HandlesStayValidAcrossManySwaps) {
  constexpr std::size_t kVars = 6;
  DdManager mgr(kVars);
  Xoshiro256 rng(31);
  std::vector<Add> funcs;
  std::vector<std::vector<double>> tables;
  for (int i = 0; i < 5; ++i) {
    funcs.push_back(random_add(mgr, rng, kVars, 6));
    tables.push_back(table_of(funcs.back(), kVars));
  }
  for (int round = 0; round < 50; ++round) {
    mgr.swap_adjacent_levels(
        static_cast<std::uint32_t>(rng.next_below(kVars - 1)));
  }
  for (std::size_t i = 0; i < funcs.size(); ++i) {
    EXPECT_EQ(table_of(funcs[i], kVars), tables[i]) << "function " << i;
  }
}

/// A seeded battery of apply and ite calls over fresh operands; returns
/// the truth table of every result. Run on two managers with the same seed
/// it must produce the same tables, whatever the managers' history.
std::vector<std::vector<double>> op_battery(DdManager& mgr, std::uint64_t seed,
                                            std::size_t vars) {
  Xoshiro256 rng(seed);
  std::vector<Add> adds;
  std::vector<Bdd> bdds;
  for (int i = 0; i < 6; ++i) adds.push_back(random_add(mgr, rng, vars, 5));
  for (int i = 0; i < 6; ++i) {
    Bdd a = mgr.bdd_var(static_cast<std::uint32_t>(rng.next_below(vars)));
    Bdd b = mgr.bdd_var(static_cast<std::uint32_t>(rng.next_below(vars)));
    Bdd c = mgr.bdd_var(static_cast<std::uint32_t>(rng.next_below(vars)));
    bdds.push_back((a & !b) | (b ^ c));
  }
  std::vector<std::vector<double>> tables;
  for (std::size_t i = 0; i < adds.size(); ++i) {
    for (std::size_t j = i + 1; j < adds.size(); ++j) {
      tables.push_back(table_of(adds[i] + adds[j], vars));
      tables.push_back(table_of(adds[i].max(adds[j]), vars));
      tables.push_back(table_of(adds[i] * adds[j], vars));
    }
  }
  for (std::size_t i = 0; i + 2 < bdds.size(); ++i) {
    const Bdd r = bdds[i].ite(bdds[i + 1], bdds[i + 2]);
    tables.push_back(table_of(Add(r), vars));
    tables.push_back(table_of(Add(bdds[i] & bdds[i + 1]), vars));
  }
  return tables;
}

TEST(Reorder, SiftRecycledIndicesNeverHitStaleCacheEntries) {
  // Fill the computed cache with apply/ite results, drop every handle so
  // those nodes die, then sift variable by variable (no leading GC, unlike
  // sift()): the swaps free the dead nodes and reuse their indices for new
  // ones. Re-running the same operations must agree with a fresh manager —
  // a cache entry keyed on a recycled index would return a wrong function.
  constexpr std::size_t kVars = 8;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    DdManager mgr(kVars);
    Xoshiro256 rng(seed * 101);
    Add keep = random_add(mgr, rng, kVars, 12);
    const auto tk = table_of(keep, kVars);
    op_battery(mgr, seed, kVars);  // results dropped; the cache keeps them
    ASSERT_GT(mgr.dead_nodes(), 0u);
    for (std::uint32_t v = 0; v < kVars; ++v) mgr.sift_variable(v);

    DdManager fresh(kVars);
    EXPECT_EQ(op_battery(mgr, seed, kVars), op_battery(fresh, seed, kVars))
        << "seed " << seed;
    EXPECT_EQ(table_of(keep, kVars), tk);
  }
}

TEST(Reorder, SiftFlushesTheCacheAtMostOnce) {
  if (!metrics::compiled_in()) GTEST_SKIP() << "metrics compiled out";
  constexpr std::size_t kVars = 10;
  DdManager mgr(kVars);
  Xoshiro256 rng(41);
  Add keep = random_add(mgr, rng, kVars, 24);
  const auto tk = table_of(keep, kVars);
  op_battery(mgr, 3, kVars);  // dead nodes: sift()'s leading GC flushes
  ASSERT_GT(mgr.dead_nodes(), 0u);

  // The swaps free the nodes that die while levels move; flushing for each
  // such swap would show here as thousands of flushes.
  const metrics::Snapshot before = metrics::snapshot();
  mgr.sift();
  // The deferred flush happens at the first lookup after the sift.
  const auto doubled = table_of(keep + keep, kVars);
  const metrics::Snapshot after = metrics::snapshot();
  auto delta = [&](const char* name) {
    return after.counter(name) - before.counter(name);
  };
  ASSERT_GT(delta("dd.reorder.swap"), 0u);
  EXPECT_EQ(delta("dd.reorder.sift"), 1u);
  EXPECT_LE(delta("dd.cache.clear"), 1 + delta("dd.gc.run"));
  const std::size_t slots = std::size_t{1} << DdConfig{}.cache_log2_slots;
  EXPECT_EQ(delta("dd.cache.clear.slots"), delta("dd.cache.clear") * slots);
  for (std::size_t m = 0; m < tk.size(); ++m) EXPECT_EQ(doubled[m], 2 * tk[m]);
}

}  // namespace
}  // namespace cfpm::dd

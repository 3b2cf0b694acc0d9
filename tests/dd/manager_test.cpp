#include "dd/manager.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"

namespace cfpm::dd {
namespace {

TEST(DdManager, ConstantsAreHashConsed) {
  DdManager mgr(2);
  Add a = mgr.constant(3.5);
  Add b = mgr.constant(3.5);
  EXPECT_EQ(a, b);
  Add c = mgr.constant(4.0);
  EXPECT_FALSE(a == c);
}

TEST(DdManager, NegativeZeroNormalized) {
  DdManager mgr(1);
  EXPECT_EQ(mgr.constant(0.0), mgr.constant(-0.0));
}

TEST(DdManager, ZeroAndOneDistinct) {
  DdManager mgr(1);
  EXPECT_FALSE(mgr.bdd_zero() == mgr.bdd_one());
  EXPECT_TRUE(mgr.bdd_zero().is_zero());
  EXPECT_TRUE(mgr.bdd_one().is_one());
}

TEST(DdManager, VarsAreCanonical) {
  DdManager mgr(3);
  Bdd x0 = mgr.bdd_var(0);
  Bdd x0b = mgr.bdd_var(0);
  EXPECT_EQ(x0, x0b);
  EXPECT_FALSE(x0 == mgr.bdd_var(1));
}

TEST(DdManager, NewVarExtends) {
  DdManager mgr(0);
  EXPECT_EQ(mgr.num_vars(), 0u);
  const auto v = mgr.new_var();
  EXPECT_EQ(v, 0u);
  EXPECT_EQ(mgr.num_vars(), 1u);
  Bdd x = mgr.bdd_var(v);
  EXPECT_FALSE(x.is_zero());
}

TEST(DdManager, BddVarOutOfRangeThrows) {
  DdManager mgr(2);
  EXPECT_THROW(mgr.bdd_var(2), ContractError);
}

TEST(DdManager, HandleCopySemantics) {
  DdManager mgr(2);
  Bdd x = mgr.bdd_var(0);
  Bdd y = x;  // copy
  EXPECT_EQ(x, y);
  Bdd z = std::move(y);
  EXPECT_EQ(x, z);
  EXPECT_TRUE(y.is_null());  // NOLINT(bugprone-use-after-move)
}

TEST(DdManager, SelfAssignmentSafe) {
  DdManager mgr(2);
  Bdd x = mgr.bdd_var(0);
  Bdd& ref = x;
  x = ref;
  EXPECT_FALSE(x.is_null());
}

TEST(DdManager, GarbageCollectionReclaimsDeadNodes) {
  DdManager mgr(8);
  {
    Bdd f = mgr.bdd_var(0);
    for (std::uint32_t v = 1; v < 8; ++v) f = f ^ mgr.bdd_var(v);
    EXPECT_GT(mgr.live_nodes(), 8u);
  }
  // All intermediate results are dead now.
  EXPECT_GT(mgr.dead_nodes(), 0u);
  const std::size_t reclaimed = mgr.collect_garbage();
  EXPECT_GT(reclaimed, 0u);
  EXPECT_EQ(mgr.dead_nodes(), 0u);
}

TEST(DdManager, ResurrectionAfterDeath) {
  DdManager mgr(2);
  Bdd x0 = mgr.bdd_var(0);
  Bdd x1 = mgr.bdd_var(1);
  {
    Bdd f = x0 & x1;
    EXPECT_FALSE(f.is_null());
  }
  // f is dead but not collected; recreating the same function must
  // resurrect it without corrupting counts.
  Bdd g = x0 & x1;
  Bdd h = x0 & x1;
  EXPECT_EQ(g, h);
  mgr.collect_garbage();
  EXPECT_FALSE(g.is_null());
  // g still evaluates correctly after GC.
  const std::uint8_t assign[2] = {1, 1};
  EXPECT_TRUE(g.eval(assign));
}

TEST(DdManager, NodeBudgetThrowsResourceError) {
  DdConfig config;
  config.max_nodes = 16;
  DdManager mgr(20, config);
  Bdd f = mgr.bdd_one();
  EXPECT_THROW(
      {
        for (std::uint32_t v = 0; v < 20; ++v) {
          f = f ^ mgr.bdd_var(v);  // parity needs a node per variable
          Bdd keep = f & mgr.bdd_var(0);
          f = f | keep;  // force growth beyond the budget
        }
      },
      ResourceError);
}

TEST(DdManager, SetOrderValidation) {
  DdManager mgr(3);
  const std::uint32_t good[] = {2, 0, 1};
  mgr.set_order(good);
  EXPECT_EQ(mgr.var_at_level(0), 2u);
  EXPECT_EQ(mgr.level_of_var(2), 0u);
  const std::uint32_t bad[] = {0, 0, 1};
  EXPECT_THROW(mgr.set_order(bad), ContractError);
}

TEST(DdManager, SetOrderAffectsStructure) {
  // With order (x1, x0), the top node of x0&x1 is labeled x1.
  DdManager mgr(2);
  const std::uint32_t order[] = {1, 0};
  mgr.set_order(order);
  Bdd f = mgr.bdd_var(0) & mgr.bdd_var(1);
  const auto sup = f.support();
  ASSERT_EQ(sup.size(), 2u);
  // Evaluation is order-independent.
  const std::uint8_t a11[2] = {1, 1};
  const std::uint8_t a10[2] = {1, 0};
  EXPECT_TRUE(f.eval(a11));
  EXPECT_FALSE(f.eval(a10));
}

TEST(DdManager, HandleEqualityIsPerManager) {
  // Regression: handle equality used to compare only the node reference,
  // so structurally identical functions from different managers -- whose
  // arena indices coincide by construction order -- compared equal.
  DdManager mgr_a(2);
  DdManager mgr_b(2);
  Bdd fa = mgr_a.bdd_var(0) & mgr_a.bdd_var(1);
  Bdd fb = mgr_b.bdd_var(0) & mgr_b.bdd_var(1);
  EXPECT_FALSE(fa == fb);
  EXPECT_TRUE(fa != fb);
  // Same manager, same function: still equal (hash-consing).
  Bdd fa2 = mgr_a.bdd_var(1) & mgr_a.bdd_var(0);
  EXPECT_TRUE(fa == fa2);
  // A function and its complement share a node but differ in the edge tag.
  EXPECT_FALSE(fa == !fa);
}

TEST(DdManager, CacheStatisticsAdvance) {
  DdManager mgr(6);
  Bdd f = mgr.bdd_var(0);
  for (std::uint32_t v = 1; v < 6; ++v) f = f & mgr.bdd_var(v);
  Bdd g = mgr.bdd_var(0);
  for (std::uint32_t v = 1; v < 6; ++v) g = g & mgr.bdd_var(v);
  EXPECT_EQ(f, g);
  EXPECT_GT(mgr.cache_lookups(), 0u);
}

// Builds the same pseudo-random mix of BDD and ADD operations in any
// manager, with a sift halfway through. With `release_midway` the cache is
// released right after that sift (a deferred flush is pending then) and
// regrows on the next apply.
std::vector<Add> cache_battery(DdManager& mgr, bool release_midway) {
  constexpr std::size_t kVars = 8;
  Xoshiro256 rng(23);
  std::vector<Add> kept;
  Add sum = mgr.constant(0.0);
  for (int i = 0; i < 40; ++i) {
    if (i == 20) {
      mgr.sift();
      if (release_midway) {
        mgr.release_cache();
        EXPECT_EQ(mgr.cache_slots(), DdManager::kCacheFloorSlots);
      }
    }
    const auto var = [&] {
      return mgr.bdd_var(static_cast<std::uint32_t>(rng.next_below(kVars)));
    };
    const Bdd a = var(), b = var(), c = var();
    const Bdd f = rng.next_bool(0.5) ? ((a & !b) | c) : ((a ^ b) & !c);
    sum = sum + Add(f).times(1.0 + static_cast<double>(rng.next_below(7)));
    if (i % 5 == 4) kept.push_back(sum.max(Add(f)));
  }
  kept.push_back(sum);
  return kept;
}

TEST(DdManager, CacheStartsAtFloorAndGrowsOnFirstOperation) {
  DdConfig config;
  config.cache_log2_slots = 10;
  DdManager mgr(4, config);
  EXPECT_EQ(mgr.cache_slots(), DdManager::kCacheFloorSlots);
  const Bdd a = mgr.bdd_var(0);
  const Bdd b = mgr.bdd_var(1);
  const Add k = mgr.constant(2.0);
  EXPECT_EQ(mgr.cache_slots(), DdManager::kCacheFloorSlots);  // no apply yet
  const Bdd f = a & b;  // ITE entry point
  EXPECT_EQ(mgr.cache_slots(), 1024u);
  mgr.release_cache();
  EXPECT_EQ(mgr.cache_slots(), DdManager::kCacheFloorSlots);
  const Add g = Add(f) + k;  // apply entry point
  EXPECT_EQ(mgr.cache_slots(), 1024u);
  std::vector<std::uint8_t> one_one{1, 1, 0, 0};
  EXPECT_EQ(g.eval(one_one), 3.0);
}

TEST(DdManager, ReleasedCacheRegrowsToTheSameDiagrams) {
  DdManager plain(8);
  DdManager released(8);
  const std::vector<Add> want = cache_battery(plain, false);
  const std::vector<Add> got = cache_battery(released, true);
  EXPECT_EQ(released.cache_slots(), plain.cache_slots());
  EXPECT_EQ(released.live_nodes(), plain.live_nodes());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(got[k].size(), want[k].size()) << "result " << k;
    for (unsigned m = 0; m < 256; ++m) {
      std::vector<std::uint8_t> a(8);
      for (unsigned v = 0; v < 8; ++v) a[v] = (m >> v) & 1u;
      ASSERT_EQ(got[k].eval(a), want[k].eval(a)) << "result " << k;
    }
  }
}

TEST(DdManager, RegrownCacheHoldsNoEntryOfAnotherManager) {
  // A released table is reused by the next manager that grows one. Arena
  // indices repeat across managers, so an entry left in it would name
  // another manager's nodes: here a stale (x & y) hit would hand b the
  // node of var 1. ctest runs this in a process of its own, where no
  // spare waits yet, so a's table is the one b takes.
  DdConfig config;
  config.cache_log2_slots = 11;
  {
    DdManager a(4, config);
    const Bdd x = a.bdd_var(0);
    const Bdd y = a.bdd_var(1);
    const Bdd f = x & y;
  }
  DdManager b(4, config);
  const Bdd x = b.bdd_var(2);
  const Bdd y = b.bdd_var(3);
  const Bdd other = b.bdd_var(1);
  const Bdd f = x & y;
  for (unsigned m = 0; m < 16; ++m) {
    std::vector<std::uint8_t> v(4);
    for (unsigned k = 0; k < 4; ++k) v[k] = (m >> k) & 1u;
    EXPECT_EQ(f.eval(v), v[2] && v[3]) << "assignment " << m;
  }
}

TEST(DdManager, ReleaseIsNotAFlush) {
  if (!metrics::compiled_in()) GTEST_SKIP() << "metrics compiled out";
  DdManager mgr(8);
  const std::vector<Add> kept = cache_battery(mgr, false);
  ASSERT_GT(mgr.cache_slots(), DdManager::kCacheFloorSlots);
  const metrics::Snapshot before = metrics::snapshot();
  mgr.release_cache();
  mgr.release_cache();  // already at the floor: nothing to do
  const metrics::Snapshot after = metrics::snapshot();
  EXPECT_EQ(mgr.cache_slots(), DdManager::kCacheFloorSlots);
  EXPECT_EQ(after.counter("dd.cache.clear"), before.counter("dd.cache.clear"));
  EXPECT_EQ(after.counter("dd.cache.clear.slots"),
            before.counter("dd.cache.clear.slots"));
}

}  // namespace
}  // namespace cfpm::dd

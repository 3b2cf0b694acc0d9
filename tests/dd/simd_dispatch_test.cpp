// Dispatch-policy tests for dd/simd.hpp: requested-tier plumbing, the
// detected-tier clamp, and the CFPM_SIMD environment override with its
// name parsing. Kernel output equivalence lives in the simd-dispatch fuzz
// oracle and compiled_eval_test; this file is only about tier selection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "dd/simd.hpp"

namespace cfpm {
namespace {

using dd::simd::Tier;

/// Leaves the process-global dispatch state (and CFPM_SIMD) as it found it,
/// so test order cannot matter.
class SimdDispatchTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ::unsetenv("CFPM_SIMD");
    dd::simd::refresh_simd_tier_from_env();
  }
};

TEST_F(SimdDispatchTest, DetectionIsStableAndScalarAlwaysAvailable) {
  const Tier detected = dd::simd::detect_simd_tier();
  EXPECT_GE(static_cast<int>(detected), static_cast<int>(Tier::kScalar));
  EXPECT_EQ(dd::simd::detect_simd_tier(), detected) << "detection not cached";
}

TEST_F(SimdDispatchTest, ActiveTierIsRequestClampedToDetection) {
  const Tier detected = dd::simd::detect_simd_tier();
  for (const Tier requested : {Tier::kScalar, Tier::kAvx2, Tier::kAvx512}) {
    dd::simd::request_simd_tier(requested);
    const Tier active = dd::simd::active_simd_tier();
    EXPECT_EQ(static_cast<int>(active),
              std::min(static_cast<int>(requested),
                       static_cast<int>(detected)));
  }
  dd::simd::request_simd_auto();
  EXPECT_EQ(dd::simd::active_simd_tier(), detected);
}

/// Requests `name` through CFPM_SIMD, the one name-based override.
Tier request_via_env(const char* name) {
  EXPECT_EQ(::setenv("CFPM_SIMD", name, 1), 0);
  dd::simd::refresh_simd_tier_from_env();
  return dd::simd::active_simd_tier();
}

TEST_F(SimdDispatchTest, ParsesTierNamesAndRejectsEverythingElse) {
  const Tier detected = dd::simd::detect_simd_tier();
  EXPECT_EQ(request_via_env("scalar"), Tier::kScalar);
  EXPECT_EQ(request_via_env("avx2"), std::min(Tier::kAvx2, detected));
  EXPECT_EQ(request_via_env("avx512"), std::min(Tier::kAvx512, detected));
  EXPECT_EQ(request_via_env("auto"), detected);

  // A rejected name falls back to auto rather than being half-parsed.
  for (const char* bad : {"", "AVX2", "sse", "avx-512", "scalar ", "1"}) {
    dd::simd::request_simd_tier(Tier::kScalar);
    EXPECT_EQ(request_via_env(bad), detected) << "accepted '" << bad << "'";
  }
}

TEST_F(SimdDispatchTest, EnvironmentOverrideForcesScalar) {
  ASSERT_EQ(::setenv("CFPM_SIMD", "scalar", 1), 0);
  dd::simd::refresh_simd_tier_from_env();
  EXPECT_EQ(dd::simd::active_simd_tier(), Tier::kScalar);
}

TEST_F(SimdDispatchTest, UnsetOrInvalidEnvironmentResetsToAuto) {
  dd::simd::request_simd_tier(Tier::kScalar);
  ASSERT_EQ(::unsetenv("CFPM_SIMD"), 0);
  dd::simd::refresh_simd_tier_from_env();
  EXPECT_EQ(dd::simd::active_simd_tier(), dd::simd::detect_simd_tier());

  dd::simd::request_simd_tier(Tier::kScalar);
  ASSERT_EQ(::setenv("CFPM_SIMD", "turbo", 1), 0);
  dd::simd::refresh_simd_tier_from_env();
  EXPECT_EQ(dd::simd::active_simd_tier(), dd::simd::detect_simd_tier());
}

TEST_F(SimdDispatchTest, TierNamesRoundTrip) {
  for (const Tier t : {Tier::kScalar, Tier::kAvx2, Tier::kAvx512}) {
    const std::string name(dd::simd::simd_tier_name(t));
    EXPECT_EQ(request_via_env(name.c_str()),
              std::min(t, dd::simd::detect_simd_tier()))
        << name;
  }
}

}  // namespace
}  // namespace cfpm

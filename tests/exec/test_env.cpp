#include "exec/env.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>

namespace spothost::exec {
namespace {

constexpr const char* kVar = "SPOTHOST_TEST_ENV_KNOB";

class EnvParse : public ::testing::Test {
 protected:
  void TearDown() override { unsetenv(kVar); }
  void set(const char* value) { ASSERT_EQ(setenv(kVar, value, 1), 0); }
};

TEST_F(EnvParse, UnsetYieldsFallback) {
  unsetenv(kVar);
  EXPECT_EQ(env_int(kVar, 5, 1, 100), 5);
  EXPECT_EQ(env_u64(kVar, 42u), 42u);
}

TEST_F(EnvParse, ValidValueParses) {
  set("17");
  EXPECT_EQ(env_int(kVar, 5, 1, 100), 17);
  EXPECT_EQ(env_u64(kVar, 42u), 17u);
}

TEST_F(EnvParse, TrailingJunkFallsBack) {
  set("3abc");  // atoi would happily return 3 here
  EXPECT_EQ(env_int(kVar, 5, 1, 100), 5);
  EXPECT_EQ(env_u64(kVar, 42u), 42u);
}

TEST_F(EnvParse, NonNumericFallsBack) {
  set("lots");
  EXPECT_EQ(env_int(kVar, 5, 1, 100), 5);
  set("");
  EXPECT_EQ(env_int(kVar, 5, 1, 100), 5);
}

TEST_F(EnvParse, OutOfRangeFallsBack) {
  set("0");
  EXPECT_EQ(env_int(kVar, 5, 1, 100), 5);
  set("101");
  EXPECT_EQ(env_int(kVar, 5, 1, 100), 5);
  set("99999999999999999999999999");  // overflows long long
  EXPECT_EQ(env_int(kVar, 5, 1, 100), 5);
}

TEST_F(EnvParse, BoundsAreInclusive) {
  set("1");
  EXPECT_EQ(env_int(kVar, 5, 1, 100), 1);
  set("100");
  EXPECT_EQ(env_int(kVar, 5, 1, 100), 100);
}

TEST_F(EnvParse, U64RejectsNegatives) {
  set("-1");  // strtoull would silently wrap this to UINT64_MAX
  EXPECT_EQ(env_u64(kVar, 42u), 42u);
}

TEST_F(EnvParse, U64AcceptsFullRange) {
  set("18446744073709551615");
  EXPECT_EQ(env_u64(kVar, 42u), 18446744073709551615ull);
  set("18446744073709551616");  // one past UINT64_MAX
  EXPECT_EQ(env_u64(kVar, 42u), 42u);
}

// The parse the CLIs' integer flags use directly.
TEST(ParseInt, AcceptsWholeInRangeIntegers) {
  EXPECT_EQ(parse_int("30", 1, 36500), 30);
  EXPECT_EQ(parse_int("1", 1, 36500), 1);
  EXPECT_EQ(parse_int("36500", 1, 36500), 36500);
  EXPECT_EQ(parse_int("-5", -10, 10), -5);
}

TEST(ParseInt, RejectsJunkAndOutOfRange) {
  EXPECT_EQ(parse_int("3x", 1, 100), std::nullopt);  // atoi would say 3
  EXPECT_EQ(parse_int("", 1, 100), std::nullopt);
  EXPECT_EQ(parse_int("x3", 1, 100), std::nullopt);
  EXPECT_EQ(parse_int("0", 1, 100), std::nullopt);
  EXPECT_EQ(parse_int("-1", 1, 100), std::nullopt);
  EXPECT_EQ(parse_int("101", 1, 100), std::nullopt);
  EXPECT_EQ(parse_int("99999999999999999999", 1, 100), std::nullopt);
}

TEST(ParseU64, AcceptsFullRange) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("20150615"), 20150615u);
  EXPECT_EQ(parse_u64("18446744073709551615"), 18446744073709551615ull);
}

TEST(ParseU64, RejectsNegativesJunkAndOverflow) {
  EXPECT_EQ(parse_u64("-1"), std::nullopt);  // strtoull would wrap it
  EXPECT_EQ(parse_u64("42abc"), std::nullopt);
  EXPECT_EQ(parse_u64(""), std::nullopt);
  EXPECT_EQ(parse_u64("18446744073709551616"), std::nullopt);
}

// The parse the CLIs' number flags (--bid, --speed, --follow) use.
TEST(ParseDouble, AcceptsWholeFiniteInRangeNumbers) {
  EXPECT_EQ(parse_double("4", 0.0, 10.0), 4.0);
  EXPECT_EQ(parse_double("0.5", 0.0, 10.0), 0.5);
  EXPECT_EQ(parse_double("1e1", 0.0, 10.0), 10.0);
  EXPECT_EQ(parse_double("0", 0.0, 10.0), 0.0);  // bounds are inclusive
  EXPECT_EQ(parse_double("-2.5", -10.0, 10.0), -2.5);
}

TEST(ParseDouble, RejectsJunkNonFiniteAndOutOfRange) {
  EXPECT_EQ(parse_double("4x", 0.0, 10.0), std::nullopt);  // atof would say 4
  EXPECT_EQ(parse_double("2abc", 0.0, 10.0), std::nullopt);
  EXPECT_EQ(parse_double("abc", 0.0, 10.0), std::nullopt);  // atof would say 0
  EXPECT_EQ(parse_double("", 0.0, 10.0), std::nullopt);
  EXPECT_EQ(parse_double(" 4", 0.0, 10.0), std::nullopt);
  EXPECT_EQ(parse_double("+4", 0.0, 10.0), std::nullopt);
  EXPECT_EQ(parse_double("0x4", 0.0, 10.0), std::nullopt);
  EXPECT_EQ(parse_double("inf", 0.0, 1e308), std::nullopt);
  EXPECT_EQ(parse_double("nan", -1e308, 1e308), std::nullopt);
  EXPECT_EQ(parse_double("1e400", 0.0, 1e308), std::nullopt);
  EXPECT_EQ(parse_double("10.5", 0.0, 10.0), std::nullopt);
  EXPECT_EQ(parse_double("-1", 0.0, 10.0), std::nullopt);
}

}  // namespace
}  // namespace spothost::exec

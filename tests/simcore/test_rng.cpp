#include "simcore/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <stdexcept>
#include <vector>

namespace spothost::sim {
namespace {

double sample_mean(std::vector<double>& xs) {
  double s = 0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

TEST(Rng, SameSeedSameSequence) {
  RngStream a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  RngStream a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform(0, 1) == b.uniform(0, 1)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformStaysInRange) {
  RngStream r(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(2.0, 3.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  RngStream r(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto x = r.uniform_int(1, 4);
    EXPECT_GE(x, 1);
    EXPECT_LE(x, 4);
    saw_lo |= (x == 1);
    saw_hi |= (x == 4);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMeanConverges) {
  RngStream r(11);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(r.exponential(5.0));
  EXPECT_NEAR(sample_mean(xs), 5.0, 0.2);
}

TEST(Rng, ExponentialRejectsNonPositiveMean) {
  RngStream r(1);
  EXPECT_THROW(r.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(r.exponential(-1.0), std::invalid_argument);
}

TEST(Rng, LognormalMeanCvMatchesTargets) {
  RngStream r(13);
  std::vector<double> xs;
  for (int i = 0; i < 50000; ++i) xs.push_back(r.lognormal_mean_cv(100.0, 0.3));
  const double m = sample_mean(xs);
  EXPECT_NEAR(m, 100.0, 1.5);
  double ss = 0;
  for (double x : xs) ss += (x - m) * (x - m);
  const double cv = std::sqrt(ss / static_cast<double>(xs.size())) / m;
  EXPECT_NEAR(cv, 0.3, 0.02);
}

TEST(Rng, LognormalZeroCvIsDeterministic) {
  RngStream r(13);
  EXPECT_DOUBLE_EQ(r.lognormal_mean_cv(42.0, 0.0), 42.0);
}

TEST(Rng, LognormalRejectsBadParams) {
  RngStream r(1);
  EXPECT_THROW(r.lognormal_mean_cv(0.0, 0.5), std::invalid_argument);
  EXPECT_THROW(r.lognormal_mean_cv(1.0, -0.5), std::invalid_argument);
}

TEST(Rng, NormalMatchesStandardLibraryDraws) {
  // Same values and engine consumption as std::normal_distribution(mean, sd).
  RngStream r(99);
  std::mt19937_64 reference(99);
  for (const double sd : {0.5, 1.0, 3.25}) {
    for (int i = 0; i < 100; ++i) {
      std::normal_distribution<double> d(10.0, sd);
      EXPECT_EQ(r.normal(10.0, sd), d(reference));
    }
  }
  EXPECT_EQ(r.engine()(), reference());
}

TEST(Rng, NormalZeroStddevReturnsMeanAndStillDraws) {
  RngStream zero(5), unit(5);
  EXPECT_EQ(zero.normal(3.5, 0.0), 3.5);
  (void)unit.normal(3.5, 1.0);
  // The degenerate draw consumes the engine exactly like any other, so later
  // values of the stream do not shift.
  EXPECT_EQ(zero.uniform(0, 1), unit.uniform(0, 1));
}

TEST(Rng, NormalRejectsNegativeStddev) {
  RngStream r(1);
  EXPECT_THROW(r.normal(0.0, -1.0), std::invalid_argument);
}

TEST(Rng, ParetoRespectsScaleAndTail) {
  RngStream r(17);
  int above_double = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = r.pareto(2.0, 1.5);
    EXPECT_GE(x, 2.0);
    if (x > 4.0) ++above_double;
  }
  // P(X > 2*x_m) = 2^-alpha = 2^-1.5 ~ 0.3536
  EXPECT_NEAR(static_cast<double>(above_double) / n, 0.3536, 0.02);
}

TEST(Rng, ParetoRejectsBadParams) {
  RngStream r(1);
  EXPECT_THROW(r.pareto(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(r.pareto(1.0, 0.0), std::invalid_argument);
}

TEST(Rng, ChanceRespectsProbability) {
  RngStream r(19);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) {
    if (r.chance(0.25)) ++hits;
  }
  EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(RngFactory, NamedStreamsAreIndependent) {
  RngFactory f(42);
  auto a = f.stream("alpha");
  auto b = f.stream("beta");
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform(0, 1) == b.uniform(0, 1)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngFactory, SameNameReproduces) {
  RngFactory f(42);
  auto a = f.stream("alpha");
  auto b = f.stream("alpha");
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(RngFactory, IndexedStreamsDiffer) {
  RngFactory f(42);
  auto a = f.stream("runs", 0);
  auto b = f.stream("runs", 1);
  EXPECT_NE(a.uniform(0, 1), b.uniform(0, 1));
}

TEST(RngFactory, DifferentMasterSeedsDecorrelate) {
  RngFactory f1(1), f2(2);
  auto a = f1.stream("x");
  auto b = f2.stream("x");
  EXPECT_NE(a.uniform(0, 1), b.uniform(0, 1));
}

TEST(Hashing, Fnv1aStableKnownValue) {
  // FNV-1a("") is the offset basis; "a" is a published vector.
  EXPECT_EQ(fnv1a(""), 0xCBF29CE484222325ULL);
  EXPECT_EQ(fnv1a("a"), 0xAF63DC4C8601EC8CULL);
}

TEST(Hashing, SplitMixAdvancesState) {
  std::uint64_t s = 0;
  const auto v1 = splitmix64(s);
  const auto v2 = splitmix64(s);
  EXPECT_NE(v1, v2);
}

}  // namespace
}  // namespace spothost::sim

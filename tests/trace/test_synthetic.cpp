#include "trace/synthetic.hpp"

#include <gtest/gtest.h>

#include "simcore/rng.hpp"
#include "trace/stats.hpp"

namespace spothost::trace {
namespace {

using sim::kDay;
using sim::kHour;

constexpr double kPon = 0.24;  // large on-demand price
constexpr sim::SimTime kMonth = 30 * kDay;

MarketProfile default_profile() { return MarketProfile{}; }

TEST(Synthetic, TraceCoversRequestedWindow) {
  sim::RngFactory f(1);
  auto rng = f.stream("m");
  const auto t = SyntheticSpotModel::generate(default_profile(), kPon, kMonth, rng);
  EXPECT_FALSE(t.empty());
  EXPECT_EQ(t.start(), 0);
  EXPECT_EQ(t.end(), kMonth);
}

TEST(Synthetic, PricesArePositive) {
  sim::RngFactory f(2);
  auto rng = f.stream("m");
  const auto t = SyntheticSpotModel::generate(default_profile(), kPon, kMonth, rng);
  for (const auto& p : t.points()) {
    EXPECT_GT(p.price, 0.0);
  }
}

TEST(Synthetic, SameSeedReproducesExactly) {
  sim::RngFactory f(3);
  auto r1 = f.stream("m");
  auto r2 = f.stream("m");
  const auto a = SyntheticSpotModel::generate(default_profile(), kPon, kMonth, r1);
  const auto b = SyntheticSpotModel::generate(default_profile(), kPon, kMonth, r2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.points()[i].time, b.points()[i].time);
    EXPECT_DOUBLE_EQ(a.points()[i].price, b.points()[i].price);
  }
}

TEST(Synthetic, MeanPriceNearBaseFraction) {
  // Calm-regime mean should keep the month average well below p_on.
  sim::RngFactory f(4);
  auto rng = f.stream("m");
  MarketProfile p = default_profile();
  p.base_fraction = 0.30;
  const auto t = SyntheticSpotModel::generate(p, kPon, kMonth, rng);
  const double avg = t.time_average(0, kMonth);
  EXPECT_GT(avg, 0.15 * kPon);
  EXPECT_LT(avg, 0.60 * kPon);
}

TEST(Synthetic, MostTimeSpentBelowOnDemand) {
  sim::RngFactory f(5);
  auto rng = f.stream("m");
  const auto t = SyntheticSpotModel::generate(default_profile(), kPon, kMonth, rng);
  EXPECT_GT(t.fraction_below(kPon, 0, kMonth), 0.90);
}

TEST(Synthetic, SpikesExceedProactiveBidOccasionally) {
  // With a us-east-like heavy tail, a few spikes per quarter must blow past
  // 4x p_on — the trigger for forced migrations under proactive bidding.
  sim::RngFactory f(6);
  auto rng = f.stream("m");
  MarketProfile p = default_profile();
  p.spike_pareto_xm = 0.5;
  p.spike_pareto_alpha = 0.85;
  p.spike_rate_per_day = 0.45;
  const auto t = SyntheticSpotModel::generate(p, kPon, 3 * kMonth, rng);
  EXPECT_GT(t.max_price(0, 3 * kMonth), 4.0 * kPon);
}

TEST(Synthetic, SpikeMagnitudeIsCapped) {
  MarketProfile p = default_profile();
  p.spike_cap_multiple = 6.0;
  sim::RngFactory f(7);
  auto rng = f.stream("m");
  const auto t = SyntheticSpotModel::generate(p, kPon, 6 * kMonth, rng);
  EXPECT_LE(t.max_price(0, 6 * kMonth), 6.0 * kPon * 1.0001);
}

TEST(Synthetic, ZeroSpikeRateYieldsCalmTrace) {
  MarketProfile p = default_profile();
  p.spike_rate_per_day = 0.0;
  p.shared_spike_fraction = 0.0;
  p.base_jitter_sigma = 0.05;
  sim::RngFactory f(8);
  auto rng = f.stream("m");
  const auto t = SyntheticSpotModel::generate(p, kPon, kMonth, rng);
  EXPECT_LT(t.max_price(0, kMonth), kPon);
}

TEST(Synthetic, SharedSpikesInduceCorrelation) {
  MarketProfile p = default_profile();
  p.shared_spike_fraction = 0.9;
  p.spike_rate_per_day = 0.0;  // only shared spikes
  sim::RngFactory f(9);
  auto shared_rng = f.stream("shared");
  const auto shared = SyntheticSpotModel::generate_shared_spikes(2.0, p, kMonth,
                                                                 shared_rng);
  auto r1 = f.stream("m1");
  auto r2 = f.stream("m2");
  MarketProfile calm = p;
  calm.base_jitter_sigma = 0.02;
  const auto a = SyntheticSpotModel::generate(calm, kPon, kMonth, r1, &shared);
  const auto b = SyntheticSpotModel::generate(calm, kPon, kMonth, r2, &shared);

  auto r3 = f.stream("m3");
  auto r4 = f.stream("m4");
  MarketProfile indep = calm;
  indep.shared_spike_fraction = 0.0;
  indep.spike_rate_per_day = 2.0;
  const auto c = SyntheticSpotModel::generate(indep, kPon, kMonth, r3);
  const auto d = SyntheticSpotModel::generate(indep, kPon, kMonth, r4);

  const double corr_shared = trace_correlation(a, b);
  const double corr_indep = trace_correlation(c, d);
  EXPECT_GT(corr_shared, corr_indep + 0.1);
}

TEST(Synthetic, SharedScheduleScalesWithConsumerPrice) {
  // The same shared schedule must produce proportionally larger spikes in a
  // pricier market.
  MarketProfile p = default_profile();
  p.shared_spike_fraction = 1.0;
  p.spike_rate_per_day = 0.0;
  p.base_jitter_sigma = 0.0;
  sim::RngFactory f(10);
  auto shared_rng = f.stream("shared");
  const auto shared =
      SyntheticSpotModel::generate_shared_spikes(3.0, p, kMonth, shared_rng);
  auto r1 = f.stream("a");
  auto r2 = f.stream("a");  // identical adoption decisions
  const auto small = SyntheticSpotModel::generate(p, 0.06, kMonth, r1, &shared);
  const auto large = SyntheticSpotModel::generate(p, 0.24, kMonth, r2, &shared);
  EXPECT_NEAR(large.max_price(0, kMonth) / small.max_price(0, kMonth), 4.0, 0.2);
}

TEST(Synthetic, CoincidingBreakpointsMergeIntoOnePoint) {
  // A spike starting with the base walk at t = 0, and two identical spikes,
  // put the same instant into the merge more than once. A step function has
  // one value per instant, so each instant must yield one point.
  MarketProfile p = default_profile();
  p.shared_spike_fraction = 1.0;  // adopt every shared spike
  p.spike_rate_per_day = 0.0;
  SpikeEvent at_zero;
  at_zero.start = 0;
  at_zero.end = kHour;
  at_zero.magnitude = 3.0;  // x p_on
  SpikeEvent later = at_zero;
  later.start = 5 * kHour;
  later.end = 6 * kHour;
  const SharedSpikeSchedule shared({at_zero, later, later});
  sim::RngFactory f(12);
  auto rng = f.stream("m");
  const auto t = SyntheticSpotModel::generate(p, kPon, kDay, rng, &shared);
  for (std::size_t i = 1; i < t.size(); ++i) {
    EXPECT_LT(t.points()[i - 1].time, t.points()[i].time);
  }
  EXPECT_DOUBLE_EQ(t.price_at(0), 3.0 * kPon);
  EXPECT_DOUBLE_EQ(t.price_at(5 * kHour), 3.0 * kPon);
  EXPECT_LT(t.price_at(6 * kHour), kPon);
}

TEST(Synthetic, RejectsBadArguments) {
  sim::RngFactory f(11);
  auto rng = f.stream("m");
  EXPECT_THROW(SyntheticSpotModel::generate(default_profile(), kPon, 0, rng),
               std::invalid_argument);
  EXPECT_THROW(SyntheticSpotModel::generate(default_profile(), 0.0, kMonth, rng),
               std::invalid_argument);
}

class SyntheticSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SyntheticSeedSweep, InvariantsHoldAcrossSeeds) {
  sim::RngFactory f(GetParam());
  auto rng = f.stream("sweep");
  const auto t = SyntheticSpotModel::generate(default_profile(), kPon, kMonth, rng);
  EXPECT_EQ(t.end(), kMonth);
  sim::SimTime prev = -1;
  for (const auto& pt : t.points()) {
    EXPECT_GT(pt.time, prev);
    EXPECT_GT(pt.price, 0.0);
    prev = pt.time;
  }
  // Step function has no redundant points (coalescing worked).
  for (std::size_t i = 1; i < t.size(); ++i) {
    EXPECT_NE(t.points()[i].price, t.points()[i - 1].price);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SyntheticSeedSweep,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u, 12345u, 777777u,
                                           0xDEADBEEFu));

}  // namespace
}  // namespace spothost::trace

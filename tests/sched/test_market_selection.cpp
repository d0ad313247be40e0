#include "sched/market_selection.hpp"
#include "simcore/simulation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "trace/profiles.hpp"

namespace spothost::sched {
namespace {

using cloud::InstanceSize;
using cloud::MarketId;
using sim::kDay;
using sim::kHour;

// Two regions x two sizes with fixed prices chosen to exercise the
// effective-price packing logic.
class SelectionTest : public ::testing::Test {
 protected:
  SelectionTest() : rng_(1), provider_(sim_, rng_) {
    add("us-east-1a", InstanceSize::kSmall, 0.030, 0.06);
    add("us-east-1a", InstanceSize::kLarge, 0.080, 0.24);  // 0.02/unit
    add("eu-west-1a", InstanceSize::kSmall, 0.010, 0.069);
    add("eu-west-1a", InstanceSize::kLarge, 0.200, 0.276);
    provider_.start();
  }

  void add(const std::string& region, InstanceSize size, double spot, double od) {
    trace::PriceTrace t;
    t.append(0, spot);
    t.set_end(30 * kDay);
    provider_.add_market(MarketId{region, size}, std::move(t), od);
  }

  sim::Simulation sim_;
  sim::RngFactory rng_;
  cloud::CloudProvider provider_;
};

TEST_F(SelectionTest, EffectivePriceDividesByCapacity) {
  // Hosting a 1-unit service on the large box costs its share: 0.08/4.
  EXPECT_DOUBLE_EQ(
      effective_spot_price(provider_, {"us-east-1a", InstanceSize::kLarge}, 1),
      0.02);
  EXPECT_DOUBLE_EQ(
      effective_spot_price(provider_, {"us-east-1a", InstanceSize::kSmall}, 1),
      0.03);
  // A 4-unit service on a small box still pays 4 small-unit shares.
  EXPECT_DOUBLE_EQ(
      effective_spot_price(provider_, {"us-east-1a", InstanceSize::kLarge}, 4),
      0.08);
}

TEST_F(SelectionTest, EffectivePriceRejectsBadUnits) {
  EXPECT_THROW(
      effective_spot_price(provider_, {"us-east-1a", InstanceSize::kSmall}, 0),
      std::invalid_argument);
}

TEST_F(SelectionTest, CandidateMarketsRespectScope) {
  const MarketId home{"us-east-1a", InstanceSize::kSmall};
  EXPECT_EQ(candidate_markets(provider_, MarketScope::kSingleMarket, home, {}),
            std::vector<MarketId>{home});
  EXPECT_EQ(
      candidate_markets(provider_, MarketScope::kMultiMarket, home, {}).size(), 2u);
  EXPECT_EQ(
      candidate_markets(provider_, MarketScope::kMultiRegion, home, {}).size(), 4u);
  EXPECT_EQ(candidate_markets(provider_, MarketScope::kMultiRegion, home,
                              {"eu-west-1a"})
                .size(),
            2u);
}

TEST_F(SelectionTest, BestMarketPicksCheapestEffective) {
  const auto candidates =
      candidate_markets(provider_, MarketScope::kMultiMarket,
                        {"us-east-1a", InstanceSize::kSmall}, {});
  SelectionOptions opts;
  opts.units_needed = 1;
  opts.max_effective_price = 0.06;
  const auto best = best_spot_market(provider_, candidates, opts);
  ASSERT_TRUE(best.has_value());
  // The large box's per-unit share (0.02) beats the small market (0.03).
  EXPECT_EQ(*best, (MarketId{"us-east-1a", InstanceSize::kLarge}));
}

TEST_F(SelectionTest, ThresholdExcludesExpensiveMarkets) {
  const auto candidates =
      candidate_markets(provider_, MarketScope::kMultiMarket,
                        {"us-east-1a", InstanceSize::kSmall}, {});
  SelectionOptions opts;
  opts.units_needed = 1;
  opts.max_effective_price = 0.015;  // below everything
  EXPECT_FALSE(best_spot_market(provider_, candidates, opts).has_value());
}

TEST_F(SelectionTest, ExcludeSkipsCurrentMarket) {
  const auto candidates =
      candidate_markets(provider_, MarketScope::kMultiMarket,
                        {"us-east-1a", InstanceSize::kSmall}, {});
  SelectionOptions opts;
  opts.units_needed = 1;
  opts.max_effective_price = 0.06;
  opts.exclude = MarketId{"us-east-1a", InstanceSize::kLarge};
  const auto best = best_spot_market(provider_, candidates, opts);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, (MarketId{"us-east-1a", InstanceSize::kSmall}));
}

TEST_F(SelectionTest, MultiRegionFindsForeignBargain) {
  const auto candidates =
      candidate_markets(provider_, MarketScope::kMultiRegion,
                        {"us-east-1a", InstanceSize::kSmall}, {});
  SelectionOptions opts;
  opts.units_needed = 1;
  opts.max_effective_price = 0.06;
  const auto best = best_spot_market(provider_, candidates, opts);
  ASSERT_TRUE(best.has_value());
  // eu-west small at 0.010/unit wins across regions.
  EXPECT_EQ(*best, (MarketId{"eu-west-1a", InstanceSize::kSmall}));
}

TEST_F(SelectionTest, CheapestOnDemandRegion) {
  EXPECT_EQ(cheapest_on_demand_region(provider_, {"us-east-1a", "eu-west-1a"},
                                      InstanceSize::kSmall),
            "us-east-1a");
  EXPECT_THROW(cheapest_on_demand_region(provider_, {}, InstanceSize::kSmall),
               std::invalid_argument);
}

TEST_F(SelectionTest, EffectiveOnDemandPrice) {
  EXPECT_DOUBLE_EQ(
      effective_on_demand_price(provider_, "us-east-1a", InstanceSize::kSmall),
      0.06);
  EXPECT_DOUBLE_EQ(
      effective_on_demand_price(provider_, "eu-west-1a", InstanceSize::kSmall),
      0.069);
}

TEST_F(SelectionTest, TrailingStddevZeroForFlatMarket) {
  sim_.run_until(kDay);
  EXPECT_DOUBLE_EQ(trailing_stddev(provider_,
                                   {"us-east-1a", InstanceSize::kSmall}, kDay,
                                   3 * kDay),
                   0.0);
}

TEST(SelectionStability, StabilityPenaltyRedirectsChoice) {
  // Build a dedicated provider where the cheapest market is wildly volatile.
  sim::Simulation sim;
  sim::RngFactory rng(2);
  cloud::CloudProvider provider(sim, rng);
  trace::PriceTrace volatile_cheap;
  for (int i = 0; i < 48; ++i) {
    volatile_cheap.append(i * kHour, (i % 2 == 0) ? 0.005 : 0.055);
  }
  volatile_cheap.set_end(3 * kDay);
  trace::PriceTrace stable_mid;
  stable_mid.append(0, 0.030);
  stable_mid.set_end(3 * kDay);
  provider.add_market({"us-east-1a", cloud::InstanceSize::kSmall},
                      std::move(volatile_cheap), 0.06);
  provider.add_market({"us-east-1b", cloud::InstanceSize::kSmall},
                      std::move(stable_mid), 0.06);
  provider.start();
  // Land on a cheap phase of the volatile market (even hour -> 0.005).
  sim.run_until(46 * kHour + 30 * sim::kMinute);

  const auto candidates = provider.all_markets();
  SelectionOptions greedy;
  greedy.units_needed = 1;
  greedy.max_effective_price = 0.06;
  greedy.now = sim.now();
  const auto g = best_spot_market(provider, candidates, greedy);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->region, "us-east-1a");  // greedy chases the cheap price

  SelectionOptions stable = greedy;
  stable.stability = StabilityPolicy::kPenalizeVolatility;
  stable.stability_penalty_weight = 2.0;
  stable.stability_window = 2 * kDay;
  const auto s = best_spot_market(provider, candidates, stable);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->region, "us-east-1b");  // stability-aware prefers the calm one
}

TEST(Selection, ScopeNames) {
  EXPECT_EQ(to_string(MarketScope::kSingleMarket), "single-market");
  EXPECT_EQ(to_string(MarketScope::kMultiRegion), "multi-region");
}

TEST(EffectivePriceCrossing, FlipsExactlyAtTheReturnedPrice) {
  // Price bands rely on this: for every canonical market, every home size's
  // p_on in that region and every units_needed a service can have, the
  // effective price exceeds p_on at the crossing and not one ulp below it.
  sim::Simulation sim;
  sim::RngFactory rng(1);
  cloud::CloudProvider provider(sim, rng);
  for (const auto region : trace::canonical_regions()) {
    for (const auto size : cloud::kAllSizes) {
      provider.add_live_market({std::string(region), size},
                               cloud::on_demand_price(size, region));
    }
  }
  provider.start();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  int checked = 0;
  for (const auto region : trace::canonical_regions()) {
    for (const auto size : cloud::kAllSizes) {
      const MarketId market{std::string(region), size};
      auto& feed = provider.market(market);
      feed.prime(0.01);
      for (const auto home_size : cloud::kAllSizes) {
        const double threshold =
            effective_on_demand_price(provider, market.region, home_size);
        for (int units = 1; units <= 8; ++units) {
          const double edge = effective_price_crossing(size, units, threshold);
          feed.push_price(edge);
          EXPECT_GT(effective_spot_price(provider, market, units), threshold)
              << market.str() << " units " << units;
          feed.push_price(std::nextafter(edge, -kInf));
          EXPECT_LE(effective_spot_price(provider, market, units), threshold)
              << market.str() << " units " << units;
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 4 * 4 * 4 * 8);
}

TEST(EffectivePriceCrossing, EdgeCases) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(effective_price_crossing(InstanceSize::kSmall, 1, kInf), kInf);
  EXPECT_EQ(effective_price_crossing(InstanceSize::kSmall, 1,
                                     std::numeric_limits<double>::quiet_NaN()),
            kInf);
  EXPECT_THROW((void)effective_price_crossing(InstanceSize::kSmall, 0, 0.06),
               std::invalid_argument);
}

}  // namespace
}  // namespace spothost::sched

#include "sched/bidding.hpp"

#include <gtest/gtest.h>

#include "simcore/rng.hpp"
#include "simcore/simulation.hpp"

namespace spothost::sched {
namespace {

using cloud::InstanceSize;
using cloud::MarketId;

class BiddingTest : public ::testing::Test {
 protected:
  BiddingTest() : rng_(1), provider_(sim_, rng_) {
    trace::PriceTrace t;
    t.append(0, 0.01);
    t.set_end(sim::kDay);
    provider_.add_market(MarketId{"us-east-1a", InstanceSize::kSmall},
                         std::move(t), 0.06);
    trace::PriceTrace u;
    u.append(0, 0.05);
    u.set_end(sim::kDay);
    provider_.add_market(MarketId{"eu-west-1a", InstanceSize::kLarge},
                         std::move(u), 0.276);
    provider_.start();
  }
  sim::Simulation sim_;
  sim::RngFactory rng_;
  cloud::CloudProvider provider_;
};

TEST_F(BiddingTest, ReactiveBidsExactlyOnDemand) {
  BidPolicy p;
  p.mode = BiddingMode::kReactive;
  EXPECT_DOUBLE_EQ(
      p.bid_for(provider_, MarketId{"us-east-1a", InstanceSize::kSmall}), 0.06);
  EXPECT_FALSE(p.plans_migrations());
}

TEST_F(BiddingTest, ProactiveBidsFourTimesOnDemand) {
  BidPolicy p;  // defaults: proactive, 4x
  EXPECT_DOUBLE_EQ(
      p.bid_for(provider_, MarketId{"us-east-1a", InstanceSize::kSmall}), 0.24);
  EXPECT_TRUE(p.plans_migrations());
}

TEST_F(BiddingTest, BidTracksMarketSpecificOnDemandPrice) {
  BidPolicy p;
  EXPECT_NEAR(p.bid_for(provider_, MarketId{"eu-west-1a", InstanceSize::kLarge}),
              4.0 * 0.276, 1e-9);
}

TEST_F(BiddingTest, ProactiveMultipleMustExceedOne) {
  BidPolicy p;
  p.proactive_multiple = 1.0;
  EXPECT_THROW(
      (void)p.bid_for(provider_, MarketId{"us-east-1a", InstanceSize::kSmall}),
      std::logic_error);
}

TEST(Bidding, ModeNames) {
  EXPECT_EQ(to_string(BiddingMode::kReactive), "reactive");
  EXPECT_EQ(to_string(BiddingMode::kProactive), "proactive");
}

}  // namespace
}  // namespace spothost::sched

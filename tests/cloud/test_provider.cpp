#include "cloud/provider.hpp"
#include "simcore/simulation.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

namespace spothost::cloud {
namespace {

using sim::kHour;
using sim::kMinute;
using sim::kSecond;

const MarketId kSmallEast{"us-east-1a", InstanceSize::kSmall};

// Fixture with one market whose price starts cheap, spikes at t=2h, and
// recovers at t=3h; deterministic (zero-CV) allocation latencies.
class ProviderTest : public ::testing::Test {
 protected:
  ProviderTest() : rng_(1234), provider_(sim_, rng_) {
    trace::PriceTrace t;
    t.append(0, 0.02);
    t.append(2 * kHour, 0.50);  // above any sane bid
    t.append(3 * kHour, 0.02);
    t.set_end(48 * kHour);
    provider_.add_market(kSmallEast, std::move(t), 0.06);
    AllocationLatency lat;
    lat.on_demand_mean_s = 90.0;
    lat.on_demand_cv = 0.0;
    lat.spot_mean_s = 240.0;
    lat.spot_cv = 0.0;
    provider_.set_allocation_latency("us-east-1a", lat);
    provider_.start();
  }

  sim::Simulation sim_;
  sim::RngFactory rng_;
  CloudProvider provider_;
};

TEST_F(ProviderTest, OnDemandArrivesAfterAllocationLatency) {
  std::optional<sim::SimTime> ready_at;
  provider_.request_on_demand(kSmallEast,
                              [&](InstanceId) { ready_at = sim_.now(); });
  sim_.run_until(kHour);
  ASSERT_TRUE(ready_at.has_value());
  EXPECT_EQ(*ready_at, 90 * kSecond);
}

TEST_F(ProviderTest, SpotGrantedWhenPriceBelowBid) {
  std::optional<InstanceId> granted;
  bool failed = false;
  provider_.request_spot(
      kSmallEast, 0.06, [&](InstanceId iid) { granted = iid; },
      [&](AllocFailure) { failed = true; });
  sim_.run_until(kHour);
  ASSERT_TRUE(granted.has_value());
  EXPECT_FALSE(failed);
  const auto& inst = provider_.instance(*granted);
  EXPECT_EQ(inst.state, InstanceState::kRunning);
  EXPECT_EQ(inst.launch, 240 * kSecond);
}

TEST_F(ProviderTest, SpotRejectedWhenPriceAboveBidAtGrant) {
  // Request just before the spike; allocation completes inside the spike.
  bool granted = false;
  bool failed = false;
  sim_.at(2 * kHour - kMinute, [&] {
    provider_.request_spot(
        kSmallEast, 0.06, [&](InstanceId) { granted = true; }, [&](AllocFailure) { failed = true; });
  });
  sim_.run_until(4 * kHour);
  EXPECT_FALSE(granted);
  EXPECT_TRUE(failed);
}

TEST_F(ProviderTest, RevocationWarningThenGraceThenTermination) {
  std::optional<InstanceId> iid;
  provider_.request_spot(kSmallEast, 0.06, [&](InstanceId i) { iid = i; }, [](AllocFailure) {});
  sim_.run_until(kHour);
  ASSERT_TRUE(iid.has_value());

  std::optional<sim::SimTime> warned_at;
  std::optional<sim::SimTime> term_time;
  provider_.set_revocation_handler(*iid, [&](InstanceId, sim::SimTime t_term) {
    warned_at = sim_.now();
    term_time = t_term;
  });
  sim_.run_until(5 * kHour);
  ASSERT_TRUE(warned_at.has_value());
  EXPECT_EQ(*warned_at, 2 * kHour);                      // spike instant
  EXPECT_EQ(*term_time, 2 * kHour + 120 * kSecond);      // 2-minute grace
  EXPECT_EQ(provider_.instance(*iid).state, InstanceState::kTerminated);
}

TEST_F(ProviderTest, RevokedPartialHourIsFree) {
  std::optional<InstanceId> iid;
  provider_.request_spot(kSmallEast, 0.06, [&](InstanceId i) { iid = i; }, [](AllocFailure) {});
  sim_.run_until(5 * kHour);
  // Launched at 240 s, revoked at 2h+120s = 7320 s. Instance-hours tick at
  // 240s + k*3600s, so only [240, 3840) completed; the in-progress second
  // hour is free under provider revocation.
  ASSERT_EQ(provider_.ledger().records().size(), 1u);
  const auto& rec = provider_.ledger().records().front();
  EXPECT_EQ(rec.cause, TerminationCause::kProviderRevoked);
  EXPECT_DOUBLE_EQ(rec.cost, 0.02);
}

TEST_F(ProviderTest, CustomerTerminationBillsPartialHour) {
  std::optional<InstanceId> iid;
  provider_.request_spot(kSmallEast, 0.06, [&](InstanceId i) { iid = i; }, [](AllocFailure) {});
  sim_.run_until(kHour);  // running since 240s
  provider_.terminate(*iid);
  ASSERT_EQ(provider_.ledger().records().size(), 1u);
  const auto& rec = provider_.ledger().records().front();
  EXPECT_EQ(rec.cause, TerminationCause::kCustomer);
  EXPECT_DOUBLE_EQ(rec.cost, 0.02);  // partial first hour billed at start price
}

// Ending its own lease clears the handler's slot while the handler still
// runs, so it must keep its captures: invoking the stored handler in place
// would make the read after terminate() a heap-use-after-free (ASan).
TEST_F(ProviderTest, CustomerCanBeatTheGracePeriod) {
  std::optional<InstanceId> iid;
  provider_.request_spot(kSmallEast, 0.06, [&](InstanceId i) { iid = i; }, [](AllocFailure) {});
  sim_.run_until(kHour);
  auto payload = std::make_shared<std::vector<int>>(64, 7);
  int seen = 0;
  provider_.set_revocation_handler(
      *iid, [this, payload = std::move(payload), &seen](InstanceId i, sim::SimTime) {
        provider_.terminate(i);  // bail out immediately on warning
        seen = (*payload)[63];
      });
  sim_.run_until(5 * kHour);
  EXPECT_EQ(seen, 7);
  ASSERT_EQ(provider_.ledger().records().size(), 1u);
  EXPECT_EQ(provider_.ledger().records().front().cause,
            TerminationCause::kCustomer);
}

TEST_F(ProviderTest, CancelPendingRequestPreventsGrant) {
  bool granted = false;
  const InstanceId iid = provider_.request_on_demand(
      kSmallEast, [&](InstanceId) { granted = true; });
  provider_.cancel_request(iid);
  sim_.run_until(kHour);
  EXPECT_FALSE(granted);
  EXPECT_EQ(provider_.instance(iid).state, InstanceState::kTerminated);
}

TEST_F(ProviderTest, OnDemandNeverRevoked) {
  std::optional<InstanceId> iid;
  provider_.request_on_demand(kSmallEast, [&](InstanceId i) { iid = i; });
  sim_.run_until(5 * kHour);  // through the spike
  EXPECT_EQ(provider_.instance(*iid).state, InstanceState::kRunning);
}

TEST_F(ProviderTest, SetRevocationHandlerOnOnDemandThrows) {
  std::optional<InstanceId> iid;
  provider_.request_on_demand(kSmallEast, [&](InstanceId i) { iid = i; });
  sim_.run_until(kHour);
  EXPECT_THROW(provider_.set_revocation_handler(*iid, [](InstanceId, sim::SimTime) {}),
               std::logic_error);
}

TEST_F(ProviderTest, FinalizeBillsRunningInstances) {
  provider_.request_on_demand(kSmallEast, [](InstanceId) {});
  sim_.run_until(10 * kHour);
  provider_.finalize(10 * kHour);
  ASSERT_EQ(provider_.ledger().records().size(), 1u);
  // Launched at 90s; 10h - 90s spans 10 started instance-hours.
  EXPECT_DOUBLE_EQ(provider_.ledger().records().front().cost, 0.60);
}

TEST_F(ProviderTest, FinalizeCancelsPendingRequests) {
  bool granted = false;
  provider_.request_on_demand(kSmallEast, [&](InstanceId) { granted = true; });
  provider_.finalize(0);
  sim_.run_until(kHour);
  EXPECT_FALSE(granted);
  EXPECT_TRUE(provider_.ledger().records().empty());
}

TEST_F(ProviderTest, UnknownMarketThrows) {
  const MarketId bogus{"nowhere-1z", InstanceSize::kSmall};
  EXPECT_THROW(provider_.request_on_demand(bogus, [](InstanceId) {}),
               std::out_of_range);
  EXPECT_THROW((void)provider_.price(bogus), std::out_of_range);
}

TEST_F(ProviderTest, UnknownInstanceThrows) {
  EXPECT_THROW((void)provider_.instance(0), std::out_of_range);
  EXPECT_THROW((void)provider_.instance(1), std::out_of_range);  // none assigned yet
  EXPECT_THROW((void)provider_.instance(987654), std::out_of_range);
  const InstanceId iid = provider_.request_on_demand(kSmallEast, [](InstanceId) {});
  EXPECT_EQ(provider_.instance(iid).id, iid);
  EXPECT_THROW((void)provider_.instance(iid + 1), std::out_of_range);
}

// A caller may hold an Instance& across calls that add more instances
// (a scheduler's migration passes a destination's market into adopt, which
// can request a server), so adding one must never move an existing
// instance.
TEST_F(ProviderTest, InstanceAddressIsStableAsInstancesAreAdded) {
  const InstanceId first = provider_.request_on_demand(kSmallEast, [](InstanceId) {});
  const Instance* address = &provider_.instance(first);
  for (int i = 0; i < 10000; ++i) {
    (void)provider_.request_on_demand(kSmallEast, [](InstanceId) {});
  }
  EXPECT_EQ(&provider_.instance(first), address);
  EXPECT_EQ(address->id, first);
  EXPECT_EQ(address->market, kSmallEast);
  EXPECT_EQ(provider_.instance(first + 10000).id, first + 10000);
}

TEST_F(ProviderTest, FinalizeBillsRunningInstancesInIdOrder) {
  // The spot grant (240 s) lands after the on-demand ones (90 s), so grant
  // order and id order differ; a terminated lease is billed when it ends.
  std::vector<InstanceId> ids;
  ids.push_back(provider_.request_spot(kSmallEast, 0.06, [](InstanceId) {},
                                       [](AllocFailure) {}));
  for (int i = 0; i < 3; ++i) {
    ids.push_back(provider_.request_on_demand(kSmallEast, [](InstanceId) {}));
  }
  sim_.run_until(kHour);
  provider_.terminate(ids[2]);
  provider_.finalize(kHour);

  std::vector<std::uint64_t> billed;
  for (const auto& record : provider_.ledger().records()) {
    billed.push_back(record.instance_id);
  }
  EXPECT_EQ(billed, (std::vector<std::uint64_t>{ids[2], ids[0], ids[1], ids[3]}));
}

TEST_F(ProviderTest, RegionAndMarketEnumeration) {
  EXPECT_TRUE(provider_.has_market(kSmallEast));
  EXPECT_EQ(provider_.all_markets().size(), 1u);
  EXPECT_EQ(provider_.markets_in_region("us-east-1a").size(), 1u);
  EXPECT_TRUE(provider_.markets_in_region("eu-west-1a").empty());
  EXPECT_EQ(provider_.regions(), std::vector<std::string>{"us-east-1a"});
}

TEST_F(ProviderTest, DuplicateMarketRejected) {
  trace::PriceTrace t;
  t.append(0, 0.01);
  t.set_end(kHour);
  EXPECT_THROW(provider_.add_market(kSmallEast, std::move(t), 0.06),
               std::logic_error);
}

TEST(Provider, PriceStepWarnsBidsStrictlyBelowItInIdOrder) {
  // Bids requested out of price order, so bid order and id order differ.
  sim::Simulation sim;
  sim::RngFactory rng(1234);
  CloudProvider provider(sim, rng);
  provider.add_live_market(kSmallEast, 0.06);
  AllocationLatency lat;
  lat.spot_mean_s = 60.0;
  lat.spot_cv = 0.0;
  provider.set_allocation_latency("us-east-1a", lat);
  provider.start();
  auto& market = provider.market(kSmallEast);
  market.prime(0.02);

  std::vector<InstanceId> warned;
  std::vector<InstanceId> ids;
  for (const double bid : {0.08, 0.07, 0.05, 0.06, 0.09}) {
    ids.push_back(provider.request_spot(
        kSmallEast, bid,
        [&](InstanceId iid) {
          provider.set_revocation_handler(
              iid, [&](InstanceId w, sim::SimTime) { warned.push_back(w); });
        },
        [](AllocFailure) { FAIL() << "spot request should be granted"; }));
  }
  sim.run_until(kMinute + kSecond);
  provider.terminate(ids[4]);  // a lease that ended leaves the index

  market.push_price(0.06);  // only bid 0.05 is below; 0.06 equals the price
  EXPECT_EQ(warned, (std::vector<InstanceId>{ids[2]}));
  market.push_price(0.075);  // bids 0.07 and 0.06, warned in id order
  EXPECT_EQ(warned, (std::vector<InstanceId>{ids[2], ids[1], ids[3]}));
  market.push_price(0.5);  // the terminated 0.09 lease is not warned
  EXPECT_EQ(warned, (std::vector<InstanceId>{ids[2], ids[1], ids[3], ids[0]}));
  EXPECT_EQ(provider.instance(ids[4]).state, InstanceState::kTerminated);
}

TEST(Provider, MarketIndicesAreDenseInAllMarketsOrder) {
  // Trace-fed and push-fed markets interleaved: each market's index is its
  // position in all_markets(), instances record their market's index, and
  // a price step revokes through its own market's index only.
  sim::Simulation sim;
  sim::RngFactory rng(1234);
  CloudProvider provider(sim, rng);
  const MarketId trace_a{"us-east-1a", InstanceSize::kSmall};
  const MarketId push_b{"push-b", InstanceSize::kSmall};
  const MarketId trace_c{"us-east-1a", InstanceSize::kLarge};
  const MarketId push_d{"push-d", InstanceSize::kMedium};
  auto flat = [] {
    trace::PriceTrace t;
    t.append(0, 0.02);
    t.set_end(48 * kHour);
    return t;
  };
  provider.add_market(trace_a, flat(), 0.06);
  provider.add_live_market(push_b, 0.06);
  provider.add_market(trace_c, flat(), 0.24);
  provider.add_live_market(push_d, 0.12);
  provider.start();
  const std::vector<MarketId> order{trace_a, push_b, trace_c, push_d};
  ASSERT_EQ(provider.all_markets(), order);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(provider.market(order[i]).index(), i) << order[i].str();
  }
  provider.market(push_b).prime(0.02);
  provider.market(push_d).prime(0.02);

  std::vector<InstanceId> warned;
  auto on_ready = [&](InstanceId iid) {
    provider.set_revocation_handler(
        iid, [&](InstanceId w, sim::SimTime) { warned.push_back(w); });
  };
  auto no_fail = [](AllocFailure) { FAIL() << "spot request should be granted"; };
  const InstanceId on_b = provider.request_spot(push_b, 0.05, on_ready, no_fail);
  const InstanceId on_d = provider.request_spot(push_d, 0.05, on_ready, no_fail);
  const InstanceId on_c = provider.request_on_demand(trace_c, [](InstanceId) {});
  EXPECT_EQ(provider.instance(on_b).market_index, 1u);
  EXPECT_EQ(provider.instance(on_d).market_index, 3u);
  EXPECT_EQ(provider.instance(on_c).market_index, 2u);
  sim.run_until(kHour);
  ASSERT_EQ(provider.instance(on_d).state, InstanceState::kRunning);

  provider.market(push_d).push_price(0.5);
  EXPECT_EQ(warned, std::vector<InstanceId>{on_d});
  EXPECT_EQ(provider.instance(on_b).state, InstanceState::kRunning);
  provider.market(push_b).push_price(0.5);
  EXPECT_EQ(warned, (std::vector<InstanceId>{on_d, on_b}));
}

TEST(Provider, NegativeGraceRejected) {
  sim::Simulation s;
  sim::RngFactory f(1);
  EXPECT_THROW(CloudProvider(s, f, -1), std::invalid_argument);
}

TEST(Provider, GracePeriodDefaultsTo120s) {
  sim::Simulation s;
  sim::RngFactory f(1);
  CloudProvider p(s, f);
  EXPECT_EQ(p.grace_period(), 120 * kSecond);
}

}  // namespace
}  // namespace spothost::cloud

#include "sched/fleet.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "cloud/billing.hpp"
#include "cloud/instance_types.hpp"
#include "sched/baselines.hpp"
#include "sched/config.hpp"

namespace spothost::sched {
namespace {

using cloud::InstanceSize;
using cloud::MarketId;
using sim::kDay;
using sim::kHour;
using workload::OutageRecord;

TEST(OutageOverlap, EmptyFleetNeverDown) {
  const auto overlap = compute_outage_overlap({}, kDay);
  EXPECT_EQ(overlap.any_down, 0);
  EXPECT_EQ(overlap.max_concurrent, 0);
}

TEST(OutageOverlap, DisjointOutagesAdd) {
  std::vector<std::vector<OutageRecord>> per_service{
      {{kHour, 2 * kHour}},
      {{3 * kHour, 4 * kHour}},
  };
  const auto overlap = compute_outage_overlap(per_service, kDay);
  EXPECT_EQ(overlap.any_down, 2 * kHour);
  EXPECT_EQ(overlap.max_concurrent, 1);
}

TEST(OutageOverlap, OverlappingOutagesCountOnceForAnyDown) {
  std::vector<std::vector<OutageRecord>> per_service{
      {{kHour, 3 * kHour}},
      {{2 * kHour, 4 * kHour}},
      {{2 * kHour + 30 * sim::kMinute, 3 * kHour}},
  };
  const auto overlap = compute_outage_overlap(per_service, kDay);
  EXPECT_EQ(overlap.any_down, 3 * kHour);  // union [1h, 4h)
  EXPECT_EQ(overlap.max_concurrent, 3);
}

TEST(OutageOverlap, ClampsToHorizon) {
  std::vector<std::vector<OutageRecord>> per_service{{{kHour, 30 * kDay}}};
  const auto overlap = compute_outage_overlap(per_service, 2 * kHour);
  EXPECT_EQ(overlap.any_down, kHour);
}

TEST(OutageOverlap, ZeroLengthOutagesContributeNothing) {
  std::vector<std::vector<OutageRecord>> per_service{
      {{kHour, kHour}, {2 * kHour, 2 * kHour}},
      {{3 * kHour, 3 * kHour}},
  };
  const auto overlap = compute_outage_overlap(per_service, kDay);
  EXPECT_EQ(overlap.any_down, 0);
  EXPECT_EQ(overlap.max_concurrent, 0);
}

TEST(OutageOverlap, OutageEntirelyPastHorizonIsDropped) {
  // An outage that starts at (or after) the horizon is clipped to nothing;
  // one straddling it contributes only the in-horizon part.
  std::vector<std::vector<OutageRecord>> per_service{
      {{3 * kHour, 5 * kHour}},
      {{kHour, 4 * kHour}},
  };
  const auto overlap = compute_outage_overlap(per_service, 3 * kHour);
  EXPECT_EQ(overlap.any_down, 2 * kHour);  // [1h, 3h) survives
  EXPECT_EQ(overlap.max_concurrent, 1);    // the two never overlap in-horizon
}

TEST(OutageOverlap, TouchingIntervalsDoNotDoubleCountDepth) {
  // Service 0 ends exactly where service 1 begins: the union is contiguous
  // but at no instant are both down, so depth must stay 1.
  std::vector<std::vector<OutageRecord>> per_service{
      {{kHour, 2 * kHour}},
      {{2 * kHour, 3 * kHour}},
  };
  const auto overlap = compute_outage_overlap(per_service, kDay);
  EXPECT_EQ(overlap.any_down, 2 * kHour);
  EXPECT_EQ(overlap.max_concurrent, 1);
}

TEST(OutageOverlap, AllServicesDownPeakReachesFleetSize) {
  std::vector<std::vector<OutageRecord>> per_service{
      {{kHour, 4 * kHour}},
      {{2 * kHour, 3 * kHour}},
      {{2 * kHour, 5 * kHour}},
  };
  const auto overlap = compute_outage_overlap(per_service, kDay);
  EXPECT_EQ(overlap.max_concurrent, 3);  // all down over [2h, 3h)
  EXPECT_EQ(overlap.any_down, 4 * kHour);
}

class FleetTest : public ::testing::Test {
 protected:
  static Scenario scenario() {
    Scenario s;
    s.seed = 5;
    s.horizon = 10 * kDay;
    s.regions = {"us-east-1a"};
    return s;
  }
};

TEST_F(FleetTest, RejectsEmptyFleet) {
  World world(scenario());
  FleetConfig cfg;
  cfg.num_services = 0;
  EXPECT_THROW(FleetScheduler(world.clock(), world.provider(), cfg,
                              world.rng()),
               std::invalid_argument);
}

TEST_F(FleetTest, HostsWholeFleetThroughTheMonth) {
  World world(scenario());
  FleetConfig cfg;
  cfg.num_services = 4;
  cfg.service_template =
      proactive_config({"us-east-1a", InstanceSize::kSmall});
  FleetScheduler fleet(world.clock(), world.provider(), cfg, world.rng());
  fleet.start();
  world.engine().run_until(world.horizon());
  world.provider().finalize(world.horizon());
  fleet.finalize(world.horizon());

  const auto m = fleet.metrics(world.horizon());
  EXPECT_EQ(m.services, 4);
  EXPECT_GT(m.total_cost, 0.0);
  EXPECT_GT(m.normalized_cost_pct, 5.0);
  EXPECT_LT(m.normalized_cost_pct, 60.0);
  EXPECT_LT(m.mean_unavailability_pct, 0.1);
  EXPECT_GE(m.worst_unavailability_pct, m.mean_unavailability_pct);
}

TEST_F(FleetTest, MixedSizeFleetAttributesEachLeaseToItsOwner) {
  // Two-size fleet: services 0/2 are small-home (1 capacity unit), services
  // 1/3 large-home (a full box). attributed_cost must pro-rate every ledger
  // record by ITS owner's capacity need — the old code used service 0's
  // need for all records, undercounting every large service's lease.
  World world(scenario());
  FleetConfig cfg;
  cfg.num_services = 4;
  cfg.service_template = proactive_config({"us-east-1a", InstanceSize::kSmall});
  cfg.home_markets = {{"us-east-1a", InstanceSize::kSmall},
                      {"us-east-1a", InstanceSize::kLarge}};
  FleetScheduler fleet(world.clock(), world.provider(), cfg, world.rng());
  fleet.start();
  world.engine().run_until(world.horizon());
  world.provider().finalize(world.horizon());
  fleet.finalize(world.horizon());

  const int units0 = fleet.scheduler(0).units_needed();
  bool mixed = false;
  double expected = 0.0;
  double service0_formula = 0.0;
  for (const auto& record : world.provider().ledger().records()) {
    // Every lease a fleet scheduler requests carries its service index.
    ASSERT_NE(record.owner, cloud::kNoOwner);
    ASSERT_LT(record.owner, 4u);
    const int capacity = cloud::type_info(record.market.size).capacity_units;
    const int units =
        fleet.scheduler(static_cast<int>(record.owner)).units_needed();
    if (units != units0) mixed = true;
    expected +=
        record.cost * std::min(1.0, static_cast<double>(units) / capacity);
    service0_formula +=
        record.cost * std::min(1.0, static_cast<double>(units0) / capacity);
  }
  ASSERT_TRUE(mixed);  // the scenario actually exercises two needs
  const auto m = fleet.metrics(world.horizon());
  EXPECT_DOUBLE_EQ(m.attributed_cost, expected);
  // A large service fills its whole box: per-owner attribution strictly
  // exceeds the old every-record-uses-service-0 formula.
  EXPECT_GT(m.attributed_cost, service0_formula);
}

TEST_F(FleetTest, SameMarketFleetSharesRevocations) {
  // All services in one market: a spike revokes everyone at once, so the
  // peak concurrent-down count should reach the fleet size at least once
  // over a long horizon (statistically robust with this seed).
  Scenario s = scenario();
  s.horizon = 30 * kDay;
  World world(s);
  FleetConfig cfg;
  cfg.num_services = 3;
  cfg.service_template = reactive_config({"us-east-1a", InstanceSize::kSmall});
  FleetScheduler fleet(world.clock(), world.provider(), cfg, world.rng());
  fleet.start();
  world.engine().run_until(world.horizon());
  world.provider().finalize(world.horizon());
  fleet.finalize(world.horizon());

  const auto m = fleet.metrics(world.horizon());
  EXPECT_GE(m.max_concurrent_down, 2);
  // Union downtime cannot exceed the sum of per-service downtimes.
  EXPECT_LE(m.any_down_pct, m.mean_unavailability_pct * m.services + 1e-9);
}

TEST_F(FleetTest, SpreadingHomesReducesCorrelatedOutages) {
  // Spreading the fleet across the two us-east zones should lower the peak
  // simultaneous-down count versus concentrating it in one market.
  Scenario s = scenario();
  s.horizon = 30 * kDay;
  s.regions = {"us-east-1a", "us-east-1b"};

  auto run_fleet = [&](std::vector<MarketId> homes) {
    World world(s);
    FleetConfig cfg;
    cfg.num_services = 4;
    cfg.service_template = reactive_config({"us-east-1a", InstanceSize::kSmall});
    cfg.home_markets = std::move(homes);
    FleetScheduler fleet(world.clock(), world.provider(), cfg, world.rng());
    fleet.start();
    world.engine().run_until(world.horizon());
    world.provider().finalize(world.horizon());
    fleet.finalize(world.horizon());
    return fleet.metrics(world.horizon());
  };

  const auto concentrated =
      run_fleet({MarketId{"us-east-1a", InstanceSize::kSmall}});
  const auto spread = run_fleet({MarketId{"us-east-1a", InstanceSize::kSmall},
                                 MarketId{"us-east-1b", InstanceSize::kSmall}});
  EXPECT_LE(spread.max_concurrent_down, concentrated.max_concurrent_down);
}

TEST_F(FleetTest, LargeFleetHoldsOneSubscriptionPerMarket) {
  // The shared MarketWatcher makes fleet price-feed cost O(markets), not
  // O(services x markets): 128 schedulers watching all 16 markets of the
  // full scenario must leave exactly one watcher subscription per market —
  // each market's feed has two observers (the provider's own revocation
  // logic plus the watcher), never 129.
  Scenario s;  // default regions x sizes: the full 4x4 = 16-market scenario
  s.seed = 5;
  s.horizon = 30 * kDay;
  World world(s);
  FleetConfig cfg;
  cfg.num_services = 128;
  cfg.service_template = proactive_config({"us-east-1a", InstanceSize::kSmall});
  cfg.service_template.scope = MarketScope::kMultiRegion;
  FleetScheduler fleet(world.clock(), world.provider(), cfg, world.rng());
  fleet.start();

  const auto markets = world.provider().all_markets();
  ASSERT_EQ(markets.size(), 16u);
  EXPECT_EQ(fleet.watcher().provider_subscriptions(), markets.size());
  for (const auto& m : markets) {
    EXPECT_EQ(world.provider().market(m).observer_count(), 2u)
        << m.region << "/" << cloud::to_string(m.size);
  }

  world.engine().run_until(world.horizon());
  world.provider().finalize(world.horizon());
  fleet.finalize(world.horizon());
  const auto metrics = fleet.metrics(world.horizon());
  EXPECT_EQ(metrics.services, 128);
  EXPECT_GT(metrics.total_cost, 0.0);
  // Subscriptions stay bounded by market count for the whole month.
  EXPECT_EQ(fleet.watcher().provider_subscriptions(), markets.size());
}

TEST_F(FleetTest, AccessorsExposeUnits) {
  World world(scenario());
  FleetConfig cfg;
  cfg.num_services = 2;
  cfg.service_template = proactive_config({"us-east-1a", InstanceSize::kSmall});
  FleetScheduler fleet(world.clock(), world.provider(), cfg, world.rng());
  EXPECT_EQ(fleet.size(), 2);
  EXPECT_EQ(fleet.service(0).name(), "svc-0");
  EXPECT_EQ(fleet.service(1).name(), "svc-1");
  EXPECT_THROW((void)fleet.service(2), std::out_of_range);
}

}  // namespace
}  // namespace spothost::sched

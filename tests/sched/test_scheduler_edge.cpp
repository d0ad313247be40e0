// Edge cases of the scheduler state machine beyond the main behaviour suite:
// hysteresis, startup-slower-than-grace forced migrations, cross-region
// planned moves, spot-grant failures, and packed-group forced migrations.
#include <gtest/gtest.h>

#include "cloud/billing.hpp"
#include "sched/baselines.hpp"
#include "sched/scheduler.hpp"
#include "simcore/simulation.hpp"
#include "workload/group.hpp"
#include "workload/service.hpp"

namespace spothost::sched {
namespace {

using cloud::InstanceSize;
using cloud::MarketId;
using sim::kDay;
using sim::kHour;
using sim::kMinute;
using sim::kSecond;

const MarketId kHome{"us-east-1a", InstanceSize::kSmall};
constexpr sim::SimTime kHorizon = 2 * kDay;

struct Step {
  sim::SimTime at;
  double price;
};

// Same fixture style as test_scheduler.cpp, but with an endpoint injection
// hook so ServiceGroups can be driven too.
class SchedulerEdgeTest : public ::testing::Test {
 protected:
  void build(std::vector<Step> home_steps,
             std::vector<std::pair<MarketId, std::vector<Step>>> extra = {},
             double od_mean_s = 95.0) {
    // The old scheduler deregisters from the old watcher, so it goes first.
    scheduler_.reset();
    rng_ = std::make_unique<sim::RngFactory>(7);
    sim_ = std::make_unique<sim::Simulation>();
    provider_ = std::make_unique<cloud::CloudProvider>(*sim_, *rng_);
    watcher_ = std::make_unique<MarketWatcher>(*provider_);
    add_market(kHome, std::move(home_steps), 0.06);
    for (auto& [market, steps] : extra) {
      add_market(market, std::move(steps),
                 cloud::on_demand_price(market.size, market.region));
      cloud::AllocationLatency lat;
      lat.on_demand_mean_s = od_mean_s;
      lat.on_demand_cv = 0.0;
      lat.spot_mean_s = 240.0;
      lat.spot_cv = 0.0;
      provider_->set_allocation_latency(market.region, lat);
    }
    cloud::AllocationLatency lat;
    lat.on_demand_mean_s = od_mean_s;
    lat.on_demand_cv = 0.0;
    lat.spot_mean_s = 240.0;
    lat.spot_cv = 0.0;
    provider_->set_allocation_latency(kHome.region, lat);
    provider_->start();
    service_ = std::make_unique<workload::AlwaysOnService>(
        "svc", virt::default_spec_for_memory(1.7, 8.0));
  }

  void add_market(const MarketId& market, std::vector<Step> steps, double od) {
    trace::PriceTrace t;
    for (const auto& s : steps) t.append(s.at, s.price);
    t.set_end(kHorizon);
    provider_->add_market(market, std::move(t), od);
  }

  void run_with(SchedulerConfig cfg, workload::ServiceEndpoint& endpoint,
                sim::SimTime until = kHorizon) {
    cfg.timing_jitter_cv = 0.0;
    scheduler_ = std::make_unique<CloudScheduler>(*sim_, *provider_, *watcher_,
                                                  endpoint, cfg, rng_->stream("timing"));
    scheduler_->start();
    sim_->run_until(until);
    provider_->finalize(until);
    scheduler_->finalize(until);
  }

  void run_with(SchedulerConfig cfg, sim::SimTime until = kHorizon) {
    run_with(std::move(cfg), *service_, until);
  }

  std::unique_ptr<sim::RngFactory> rng_;
  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<cloud::CloudProvider> provider_;
  std::unique_ptr<workload::AlwaysOnService> service_;
  std::unique_ptr<MarketWatcher> watcher_;
  std::unique_ptr<CloudScheduler> scheduler_;
};

TEST_F(SchedulerEdgeTest, ReverseHysteresisHoldsJustBelowOnDemand) {
  // After a spike the spot price recovers to 0.058 — below p_on (0.06) but
  // above the 0.92 margin threshold (0.0552). The scheduler must stay on
  // on-demand rather than flap back.
  build({{0, 0.02}, {4 * kHour, 0.10}, {6 * kHour, 0.058}});
  run_with(proactive_config(kHome));
  EXPECT_EQ(scheduler_->stats().planned, 1);
  EXPECT_EQ(scheduler_->stats().reverse, 0);
  EXPECT_EQ(scheduler_->state(), CloudScheduler::State::kOnDemand);
}

TEST_F(SchedulerEdgeTest, ReverseFiresOnceBelowMargin) {
  build({{0, 0.02}, {4 * kHour, 0.10}, {6 * kHour, 0.054}});
  run_with(proactive_config(kHome));
  EXPECT_EQ(scheduler_->stats().reverse, 1);
  EXPECT_EQ(scheduler_->state(), CloudScheduler::State::kOnSpot);
}

TEST_F(SchedulerEdgeTest, SlowOnDemandStartupStretchesForcedDowntime) {
  // On-demand allocation (300 s) far exceeds the 120 s grace: the service
  // stays down from flush until the replacement arrives plus restore.
  build({{0, 0.02}, {5 * kHour, 0.50}, {8 * kHour, 0.02}}, {},
        /*od_mean_s=*/300.0);
  run_with(reactive_config(kHome), 7 * kHour);
  const double downtime = sim::to_seconds(service_->availability().total_downtime());
  // flush(10) + shortfall(300 - 120 = 180) + lazy restore(20) = 210.
  EXPECT_GT(downtime, 195.0);
  EXPECT_LT(downtime, 225.0);
}

TEST_F(SchedulerEdgeTest, MultiRegionPlannedMovesAcrossRegions) {
  // Home spikes; the only cheap market is in another region family. The
  // planned migration must land there (WAN disk copy and all) with no
  // service downtime beyond the live-migration blip.
  build({{0, 0.02}, {5 * kHour, 0.10}, {40 * kHour, 0.02}},
        {{MarketId{"eu-west-1a", InstanceSize::kSmall}, {{0, 0.02}}}});
  SchedulerConfig cfg = proactive_config(kHome);
  cfg.scope = MarketScope::kMultiRegion;
  cfg.allowed_regions = {"us-east-1a", "eu-west-1a"};
  run_with(cfg, 10 * kHour);
  EXPECT_EQ(scheduler_->stats().planned, 1);
  EXPECT_EQ(scheduler_->stats().market_switches, 1);
  EXPECT_EQ(scheduler_->state(), CloudScheduler::State::kOnSpot);
  // The us-east -> eu-west link (~29.5 MB/s) barely outruns the guest's
  // 30 MB/s dirty rate, so pre-copy cannot converge and live migration
  // falls back to a working-set stop-copy: ~15 s of downtime — still far
  // below a suspend/resume move, but not the LAN sub-second blip.
  EXPECT_LT(sim::to_seconds(service_->availability().total_downtime()), 30.0);
}

TEST_F(SchedulerEdgeTest, OnDemandStaysPutWhileSpotRemainsExpensive) {
  build({{0, 0.50}});  // never cheap
  run_with(proactive_config(kHome));
  EXPECT_EQ(scheduler_->state(), CloudScheduler::State::kOnDemand);
  EXPECT_EQ(scheduler_->stats().reverse, 0);
  EXPECT_DOUBLE_EQ(service_->availability().unavailability(), 0.0);
  // Paying the on-demand price the whole horizon: normalized cost ~100%.
  EXPECT_NEAR(provider_->ledger().total_cost(), 0.06 * 48, 0.061);
}

TEST_F(SchedulerEdgeTest, ReverseSpotGrantFailureRetriesNextHour) {
  // The spot price dips below the margin long enough for the hour check
  // (~4h54m, lead before the on-demand instance-hour boundary) to start a
  // reverse move, but jumps past the 4x bid during the ~4-minute spot
  // allocation — the grant is rejected, and the scheduler retries at a
  // later hour check once the market calms.
  build({{0, 0.02},
         {4 * kHour, 0.10},                 // planned -> on-demand (~4h02m)
         {4 * kHour + 50 * kMinute, 0.02},  // dip: reverse attempt at ~4h54m
         {4 * kHour + 56 * kMinute, 0.30},  // above bid when the grant lands
         {7 * kHour, 0.02}});               // calm again
  run_with(proactive_config(kHome), 9 * kHour);
  EXPECT_GE(scheduler_->stats().spot_request_failures, 1);
  EXPECT_EQ(scheduler_->stats().reverse, 1);  // succeeded on a later check
  EXPECT_EQ(scheduler_->state(), CloudScheduler::State::kOnSpot);
}

TEST_F(SchedulerEdgeTest, PackedGroupForcedMigrationHitsAllTenants) {
  // A 4-unit group needs a large box; the large market takes the spike
  // (2.0 > 4 x 0.24 bid). The home small market stays calm and irrelevant.
  const MarketId large{"us-east-1a", InstanceSize::kLarge};
  build({{0, 0.02}},
        {{large, {{0, 0.02}, {5 * kHour, 2.0}, {8 * kHour, 0.02}}}});
  workload::ServiceGroup group("tenant", 4,
                               virt::default_spec_for_memory(0.4, 2.0));
  SchedulerConfig cfg = proactive_config(large);
  cfg.capacity_units_override = group.size();
  cfg.vm_spec = group.aggregate_spec();
  run_with(cfg, group, 7 * kHour);
  EXPECT_EQ(scheduler_->stats().forced, 1);
  for (int i = 0; i < group.size(); ++i) {
    EXPECT_EQ(group.member(i).outage_count(workload::OutageCause::kForcedMigration),
              1)
        << i;
    EXPECT_GT(group.member(i).availability().total_downtime(), 0) << i;
  }
}

TEST_F(SchedulerEdgeTest, CkptCombosPayDowntimeOnPlannedMigrations) {
  // Without live migration, even voluntary moves suspend the service.
  build({{0, 0.02}, {5 * kHour, 0.10}, {12 * kHour, 0.02}});
  SchedulerConfig cfg = proactive_config(kHome);
  cfg.combo = virt::MechanismCombo::kCkptLazy;
  run_with(cfg, 8 * kHour);
  EXPECT_EQ(scheduler_->stats().planned, 1);
  const double downtime = sim::to_seconds(service_->availability().total_downtime());
  // flush (<= 10 s) + lazy resume (20 s).
  EXPECT_GT(downtime, 20.0);
  EXPECT_LT(downtime, 40.0);
  // Lazy restore leaves a degraded window behind.
  EXPECT_GT(service_->availability().total_degraded(), 0);
}

TEST_F(SchedulerEdgeTest, FinalizeWithServiceNeverLiveBooksFullOutage) {
  build({{0, 0.50}});
  run_with(pure_spot_config(kHome), 6 * kHour);
  EXPECT_NEAR(service_->availability().unavailability(), 1.0, 1e-9);
  EXPECT_EQ(service_->availability().outage_count(), 1u);
}

TEST_F(SchedulerEdgeTest, BackToBackSpikesEachHandledOnce) {
  build({{0, 0.02},
         {5 * kHour, 0.50},
         {6 * kHour, 0.02},
         {9 * kHour, 0.50},
         {10 * kHour, 0.02}});
  run_with(proactive_config(kHome), 14 * kHour);
  EXPECT_EQ(scheduler_->stats().forced, 2);
  EXPECT_EQ(scheduler_->stats().reverse, 2);
  EXPECT_EQ(service_->outage_count(workload::OutageCause::kForcedMigration), 2);
  EXPECT_EQ(scheduler_->state(), CloudScheduler::State::kOnSpot);
}

}  // namespace
}  // namespace spothost::sched

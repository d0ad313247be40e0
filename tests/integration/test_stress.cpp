// Stress / property suite: hostile synthetic markets across every policy,
// scope and mechanism combination. Individual outcomes are not asserted —
// instead, run-level invariants that must hold for ANY input:
//   * the simulation terminates (no event storms);
//   * availability books balance (downtime == sum of outages, within horizon);
//   * spending is bounded (a sane scheduler never pays wildly above the
//     on-demand baseline, even in pathological markets);
//   * migration counters are consistent with the outage causes recorded.
#include <gtest/gtest.h>

#include "metrics/experiment.hpp"
#include "sched/baselines.hpp"
#include "simcore/simulation.hpp"
#include "trace/profiles.hpp"

namespace spothost {
namespace {

using cloud::InstanceSize;
using sim::kDay;

// A much nastier market than the calibrated profiles: constant churn, spikes
// every few hours with violent tails.
trace::MarketProfile hostile_profile() {
  trace::MarketProfile p;
  p.base_fraction = 0.45;
  p.base_jitter_sigma = 0.5;
  p.base_change_mean_minutes = 4.0;
  p.spike_rate_per_day = 8.0;
  p.spike_pareto_xm = 0.8;
  p.spike_pareto_alpha = 0.6;
  p.spike_cap_multiple = 25.0;
  p.spike_duration_mean_minutes = 15.0;
  p.spike_duration_cv = 2.0;
  p.max_ramp_steps = 4;
  p.ramp_step_mean_seconds = 15.0;
  p.shared_spike_fraction = 0.0;
  return p;
}

struct StressCase {
  int policy;  // 0 proactive, 1 reactive, 2 pure spot
  sched::MarketScope scope;
  virt::MechanismCombo combo;
  std::uint64_t seed;
};

class StressSweep : public ::testing::TestWithParam<StressCase> {};

TEST_P(StressSweep, InvariantsSurviveHostileMarkets) {
  const auto& param = GetParam();

  // Hand-built world: every market uses the hostile profile.
  sim::RngFactory rng(param.seed);
  sim::Simulation simulation;
  cloud::CloudProvider provider(simulation, rng);
  const sim::SimTime horizon = 10 * kDay;
  for (const std::string region : {"us-east-1a", "us-east-1b"}) {
    provider.set_allocation_latency(region,
                                    sched::table1_allocation_latency(region));
    for (const auto size : cloud::kAllSizes) {
      const double od = cloud::on_demand_price(size, region);
      auto market_rng = rng.stream("hostile/" + region +
                                   std::string(cloud::to_string(size)));
      provider.add_market(
          cloud::MarketId{region, size},
          trace::SyntheticSpotModel::generate(hostile_profile(), od, horizon,
                                              market_rng),
          od);
    }
  }
  provider.start();

  workload::AlwaysOnService service("stress",
                                    virt::default_spec_for_memory(1.7, 8.0));
  sched::SchedulerConfig cfg;
  switch (param.policy) {
    case 0: cfg = sched::proactive_config({"us-east-1a", InstanceSize::kSmall}); break;
    case 1: cfg = sched::reactive_config({"us-east-1a", InstanceSize::kSmall}); break;
    default: cfg = sched::pure_spot_config({"us-east-1a", InstanceSize::kSmall});
  }
  if (param.policy != 2) cfg.scope = param.scope;
  cfg.combo = param.combo;
  sched::MarketWatcher watcher(provider);
  sched::CloudScheduler scheduler(simulation, provider, watcher, service, cfg,
                                  rng.stream("timing"));
  scheduler.start();
  simulation.run_until(horizon);
  provider.finalize(horizon);
  scheduler.finalize(horizon);

  // 1. Termination with a bounded event count.
  EXPECT_LT(simulation.dispatched(), 3'000'000u);

  // 2. Books balance.
  const auto& avail = service.availability();
  sim::SimTime outage_sum = 0;
  for (const auto& o : avail.outages()) {
    EXPECT_GE(o.start, 0);
    EXPECT_LE(o.end, horizon);
    EXPECT_LE(o.start, o.end);
    outage_sum += o.duration();
  }
  EXPECT_EQ(outage_sum, avail.total_downtime());
  EXPECT_LE(avail.total_downtime(), horizon);

  // 3. Bounded spending: even chasing a hostile market, attributed cost
  // stays within a small multiple of the on-demand baseline.
  const auto metrics = metrics::compute_run_metrics(
      provider, scheduler, service, horizon,
      provider.od_price({"us-east-1a", InstanceSize::kSmall}));
  EXPECT_LT(metrics.normalized_cost_pct, 250.0);
  EXPECT_GE(metrics.total_cost, 0.0);

  // 4. Counter consistency: outages attributed to forced migrations cannot
  // exceed forced migrations begun (an in-flight one at the horizon may not
  // have produced its outage yet).
  EXPECT_LE(service.outage_count(workload::OutageCause::kForcedMigration),
            scheduler.stats().forced);
  EXPECT_GE(scheduler.stats().forced, 0);
  EXPECT_GE(scheduler.stats().planned, 0);
  EXPECT_GE(scheduler.stats().reverse, 0);
}

std::vector<StressCase> stress_cases() {
  std::vector<StressCase> cases;
  std::uint64_t seed = 1000;
  for (const int policy : {0, 1, 2}) {
    for (const auto scope :
         {sched::MarketScope::kSingleMarket, sched::MarketScope::kMultiMarket,
          sched::MarketScope::kMultiRegion}) {
      for (const auto combo :
           {virt::MechanismCombo::kCkpt, virt::MechanismCombo::kCkptLazyLive}) {
        cases.push_back({policy, scope, combo, seed});
        seed += 7;
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(HostileMarkets, StressSweep,
                         ::testing::ValuesIn(stress_cases()));

class SeedMarathon : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedMarathon, StandardWorldsNeverWedge) {
  sched::Scenario scenario;
  scenario.seed = GetParam();
  scenario.horizon = 30 * kDay;
  scenario.regions = {"us-east-1a", "us-east-1b", "us-west-1a", "eu-west-1a"};
  auto cfg = sched::proactive_config({"us-east-1a", InstanceSize::kSmall});
  cfg.scope = sched::MarketScope::kMultiRegion;
  const auto m = metrics::run_hosting_scenario(scenario, cfg);
  EXPECT_GE(m.normalized_cost_pct, 0.0);
  EXPECT_LT(m.normalized_cost_pct, 150.0);
  EXPECT_GE(m.unavailability_pct, 0.0);
  EXPECT_LT(m.unavailability_pct, 5.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedMarathon,
                         ::testing::Range<std::uint64_t>(5000, 5024));

}  // namespace
}  // namespace spothost

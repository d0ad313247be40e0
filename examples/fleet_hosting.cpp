// Fleet hosting walkthrough: an operator runs six always-on services on the
// spot market. Shows the extension APIs working together:
//   * BidAdvisor — pick the bid multiple from the market's history + SLO;
//   * FleetScheduler — run the fleet, spread across availability zones;
//   * ServiceGroup — pack four small tenants onto one shared server;
//   * OutageStats — MTTR / MTBF / percentiles for the month.
#include <iostream>

#include "spothost.hpp"

using namespace spothost;

int main() {
  sched::Scenario scenario;
  scenario.seed = 77;
  scenario.horizon = 30 * sim::kDay;
  scenario.regions = {"us-east-1a", "us-east-1b"};

  // ---- 1. ask the bid advisor ------------------------------------------
  sched::World advisor_world(scenario);
  const cloud::MarketId home{"us-east-1a", cloud::InstanceSize::kSmall};
  const auto rec = sched::recommend_bid(
      advisor_world.provider().market(home).price_trace(),
      advisor_world.provider().od_price(home), /*max_unavailability_pct=*/0.01);
  std::cout << "bid advisor: use " << metrics::fmt(rec.multiple, 1)
            << "x on-demand (estimated cost "
            << metrics::fmt(rec.estimate.normalized_cost_pct, 1)
            << "%, unavailability "
            << metrics::fmt(rec.estimate.unavailability_pct, 4) << "%, SLO "
            << (rec.slo_met ? "met" : "NOT met") << ")\n\n";

  // ---- 2. run the fleet, spread across zones ------------------------------
  sched::World world(scenario);
  sched::FleetConfig fleet_cfg;
  fleet_cfg.num_services = 6;
  fleet_cfg.service_template = sched::proactive_config(home);
  fleet_cfg.service_template.bid.proactive_multiple = rec.multiple;
  fleet_cfg.home_markets = {
      {"us-east-1a", cloud::InstanceSize::kSmall},
      {"us-east-1b", cloud::InstanceSize::kSmall},
  };
  sched::FleetScheduler fleet(world.clock(), world.provider(), fleet_cfg,
                              world.rng());
  fleet.start();
  world.engine().run_until(world.horizon());
  world.provider().finalize(world.horizon());
  fleet.finalize(world.horizon());

  const auto fm = fleet.metrics(world.horizon());
  std::cout << "fleet of " << fm.services << ": cost "
            << metrics::fmt(fm.normalized_cost_pct, 1)
            << "% of on-demand; per-service unavailability mean "
            << metrics::fmt(fm.mean_unavailability_pct, 4) << "% / worst "
            << metrics::fmt(fm.worst_unavailability_pct, 4)
            << "%; >=1 service down "
            << metrics::fmt(fm.any_down_pct, 4) << "% of the month; at worst "
            << fm.max_concurrent_down << " down at once\n";

  const auto s0 =
      workload::compute_outage_stats(fleet.service(0).availability(),
                                     world.horizon());
  std::cout << "svc-0 reliability: " << s0.count << " outages, MTTR "
            << metrics::fmt(s0.mttr_s, 0) << " s, p95 "
            << metrics::fmt(s0.p95_s, 0) << " s, MTBF "
            << metrics::fmt(s0.mtbf_hours, 0) << " h\n\n";

  // ---- 3. pack four tenants onto one shared server -----------------------
  sched::World packed_world(scenario);
  workload::ServiceGroup tenants("tenant", 4,
                                 virt::default_spec_for_memory(1.7, 8.0));
  sched::SchedulerConfig packed_cfg = sched::proactive_config(home);
  packed_cfg.scope = sched::MarketScope::kMultiMarket;
  packed_cfg.capacity_units_override = tenants.size();
  packed_cfg.vm_spec = tenants.aggregate_spec();
  sched::MarketWatcher packed_watcher(packed_world.provider());
  sched::CloudScheduler packed(packed_world.clock(), packed_world.provider(),
                               packed_watcher, tenants, packed_cfg,
                               packed_world.stream("packed"));
  packed.start();
  packed_world.engine().run_until(packed_world.horizon());
  packed_world.provider().finalize(packed_world.horizon());
  packed.finalize(packed_world.horizon());

  double packed_cost = 0.0;
  for (const auto& r : packed_world.provider().ledger().records()) {
    const int capacity = cloud::type_info(r.market.size).capacity_units;
    packed_cost += r.cost * std::min(1.0, 4.0 / capacity);
  }
  std::cout << "packed group of " << tenants.size() << " tenants: $"
            << metrics::fmt(packed_cost, 2) << " for the month ($"
            << metrics::fmt(packed_cost / tenants.size(), 2)
            << "/tenant), unavailability "
            << metrics::fmt(tenants.mean_unavailability_percent(), 4) << "%\n";
  std::cout << "(a dedicated on-demand small would be $"
            << metrics::fmt(0.06 * 24 * 30, 2) << "/tenant)\n";
  return 0;
}

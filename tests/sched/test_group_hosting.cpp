// Packed-group hosting through the scheduler: a ServiceGroup of nested VMs
// rides one shared server, with group-sized capacity and migration costs.
#include <gtest/gtest.h>

#include "cloud/billing.hpp"
#include "metrics/experiment.hpp"
#include "sched/baselines.hpp"
#include "sched/config.hpp"
#include "workload/group.hpp"

namespace spothost::sched {
namespace {

using cloud::InstanceSize;
using cloud::MarketId;
using sim::kDay;

SchedulerConfig group_config(int group_size) {
  // The group needs `group_size` small-units; the scheduler may pack it onto
  // any market with that much capacity.
  SchedulerConfig cfg = proactive_config({"us-east-1a", InstanceSize::kSmall});
  cfg.scope = MarketScope::kMultiMarket;
  cfg.capacity_units_override = group_size;
  return cfg;
}

TEST(GroupHosting, FourTenantsShareOneServerThroughAMonth) {
  Scenario scenario;
  scenario.seed = 21;
  scenario.horizon = 20 * kDay;
  scenario.regions = {"us-east-1a"};
  World world(scenario);

  workload::ServiceGroup group("tenant", 4,
                               virt::default_spec_for_memory(1.7, 8.0));
  SchedulerConfig cfg = group_config(group.size());
  cfg.vm_spec = group.aggregate_spec();
  MarketWatcher watcher(world.provider());
  CloudScheduler scheduler(world.clock(), world.provider(), watcher, group, cfg,
                           world.stream("t"));
  scheduler.start();
  world.engine().run_until(world.horizon());
  world.provider().finalize(world.horizon());
  scheduler.finalize(world.horizon());

  EXPECT_EQ(scheduler.units_needed(), 4);
  // Every tenant has identical books (they share the box).
  for (int i = 1; i < group.size(); ++i) {
    EXPECT_EQ(group.member(i).availability().total_downtime(),
              group.member(0).availability().total_downtime());
  }
  // Group stays near the always-on budget even though migrations move 4 VMs.
  EXPECT_LT(group.mean_unavailability_percent(), 0.1);
}

TEST(GroupHosting, PackingBeatsDedicatedSmallBoxesOnCost) {
  // Four tenants on one large/xlarge box (shared price) vs four dedicated
  // small boxes: the per-tenant attributed cost of the packed group should
  // not exceed 4x a single small hosting cost — and whenever a bigger box's
  // unit price undercuts the small market, it should be strictly cheaper.
  Scenario scenario;
  scenario.seed = 22;
  scenario.horizon = 20 * kDay;
  scenario.regions = {"us-east-1a"};

  // Packed run.
  double packed_cost = 0.0;
  {
    World world(scenario);
    workload::ServiceGroup group("tenant", 4,
                                 virt::default_spec_for_memory(1.7, 8.0));
    SchedulerConfig cfg = group_config(group.size());
    cfg.vm_spec = group.aggregate_spec();
    MarketWatcher watcher(world.provider());
    CloudScheduler scheduler(world.clock(), world.provider(), watcher, group, cfg,
                             world.stream("t"));
    scheduler.start();
    world.engine().run_until(world.horizon());
    world.provider().finalize(world.horizon());
    scheduler.finalize(world.horizon());
    for (const auto& rec : world.provider().ledger().records()) {
      const int capacity = cloud::type_info(rec.market.size).capacity_units;
      packed_cost += rec.cost * std::min(1.0, 4.0 / capacity);
    }
  }

  // Dedicated run: one small service, scaled by four.
  Scenario single = scenario;
  const auto m = metrics::run_hosting_scenario(
      single, proactive_config({"us-east-1a", InstanceSize::kSmall}));
  EXPECT_LT(packed_cost, 4.0 * m.attributed_cost * 1.10);
}

}  // namespace
}  // namespace spothost::sched

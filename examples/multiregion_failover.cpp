// Multi-region hosting with a live event feed: runs the multi-region
// scheduler across us-east-1a and eu-west-1a and prints the migration
// timeline the scheduler actually executed (captured via the library's
// logging hook), followed by the month's bill.
#include <iostream>
#include <vector>

#include "spothost.hpp"

using namespace spothost;

int main() {
  sched::Scenario scenario;
  scenario.seed = 11;
  scenario.horizon = 30 * sim::kDay;
  scenario.regions = {"us-east-1a", "eu-west-1a"};

  sched::World world(scenario);
  workload::AlwaysOnService service("globalshop",
                                    virt::default_spec_for_memory(3.75, 8.0));

  sched::SchedulerConfig config =
      sched::proactive_config({"us-east-1a", cloud::InstanceSize::kSmall});
  config.scope = sched::MarketScope::kMultiRegion;
  config.allowed_regions = scenario.regions;

  // Capture the scheduler's INFO-level event stream as a timeline.
  std::vector<std::string> timeline;
  auto& logger = sim::Logger::global();
  const auto saved_level = logger.level();
  logger.set_level(sim::LogLevel::kInfo);
  logger.set_sink([&](sim::LogLevel level, const std::string& msg) {
    if (level == sim::LogLevel::kInfo) timeline.push_back(msg);
  });

  sched::MarketWatcher watcher(world.provider());
  sched::CloudScheduler scheduler(world.clock(), world.provider(), watcher, service,
                                  config, world.stream("timing"));
  scheduler.start();
  world.engine().run_until(world.horizon());
  world.provider().finalize(world.horizon());
  scheduler.finalize(world.horizon());

  logger.set_level(saved_level);
  logger.set_sink(nullptr);

  std::cout << "== migration timeline (multi-region: us-east-1a + eu-west-1a) ==\n";
  for (const auto& line : timeline) std::cout << "  " << line << '\n';

  const auto& stats = scheduler.stats();
  const auto& avail = service.availability();
  std::cout << "\n== month summary ==\n";
  std::cout << "migrations: " << stats.forced << " forced, " << stats.planned
            << " planned (" << stats.market_switches << " to other spot markets), "
            << stats.reverse << " reverse, " << stats.cancelled_planned
            << " cancelled\n";
  std::cout << "downtime: " << sim::to_seconds(avail.total_downtime())
            << " s across " << avail.outage_count() << " outages ("
            << metrics::fmt(avail.unavailability_percent(), 4) << "%)\n";
  std::cout << "bill: $" << metrics::fmt(world.provider().ledger().total_cost(), 2)
            << " (spot $"
            << metrics::fmt(world.provider().ledger().total_cost(
                                cloud::BillingMode::kSpot),
                            2)
            << " / on-demand $"
            << metrics::fmt(world.provider().ledger().total_cost(
                                cloud::BillingMode::kOnDemand),
                            2)
            << ")\n";
  return 0;
}

// Quickstart: host an always-on service on the spot market for a month and
// print what it cost and how available it was.
//
//   $ ./quickstart [seed]
//
// Walks through the three public-API steps: build a world, configure the
// scheduler, run and read the metrics.
#include <iostream>

#include "spothost.hpp"

using namespace spothost;

int main(int argc, char** argv) {
  std::uint64_t seed = 42;
  if (argc > 1) {
    const auto parsed = exec::parse_u64(argv[1]);
    if (!parsed) {
      std::cerr << "error: seed must be a non-negative integer, got '" << argv[1]
                << "'\nusage: quickstart [seed]\n";
      return 2;
    }
    seed = *parsed;
  }

  // 1. A simulated cloud: four regions x four instance sizes, 30 days of
  //    synthetic spot prices seeded deterministically.
  sched::Scenario scenario;
  scenario.seed = seed;
  scenario.horizon = 30 * sim::kDay;

  // 2. The scheduler: proactive bidding (bid = 4x on-demand), checkpointing
  //    with lazy restore plus live migration, single market.
  const cloud::MarketId home{"us-east-1a", cloud::InstanceSize::kSmall};
  sched::SchedulerConfig config = sched::proactive_config(home);

  // 3. Run and report.
  const metrics::RunMetrics m = metrics::run_hosting_scenario(scenario, config);

  std::cout << "hosted a " << cloud::to_string(home.size) << " service in "
            << home.region << " for " << m.horizon_hours << " hours (seed "
            << seed << ")\n\n";
  std::cout << "cost:            $" << metrics::fmt(m.attributed_cost, 2)
            << "  (" << metrics::fmt(m.normalized_cost_pct, 1)
            << "% of the $" << metrics::fmt(m.baseline_od_cost, 2)
            << " on-demand baseline)\n";
  std::cout << "unavailability:  " << metrics::fmt(m.unavailability_pct, 4)
            << "%  (" << metrics::fmt(m.downtime_s, 0) << " s down across "
            << m.outages << " outages; four-nines budget is 0.01%)\n";
  std::cout << "migrations:      " << m.forced << " forced, " << m.planned
            << " planned, " << m.reverse << " reverse, " << m.cancelled_planned
            << " cancelled\n";

  const bool four_nines = m.unavailability_pct <= 0.01;
  std::cout << "\nverdict: " << metrics::fmt(100.0 - m.normalized_cost_pct, 0)
            << "% cheaper than on-demand, "
            << (four_nines ? "within" : "near") << " the always-on budget\n";
  return 0;
}

#include "sched/config.hpp"

#include <stdexcept>

#include "sched/market_traces.hpp"
#include "virt/network_model.hpp"

namespace spothost::sched {

cloud::AllocationLatency table1_allocation_latency(const std::string& region) {
  const std::string family = virt::NetworkModel::region_family(region);
  cloud::AllocationLatency lat;
  if (family == "us-east") {
    lat.on_demand_mean_s = 94.85;
    lat.spot_mean_s = 281.47;
  } else if (family == "us-west") {
    lat.on_demand_mean_s = 93.63;
    lat.spot_mean_s = 219.77;
  } else if (family == "eu-west") {
    lat.on_demand_mean_s = 98.08;
    lat.spot_mean_s = 233.37;
  }
  return lat;
}

Scenario normalized_scenario(Scenario scenario) {
  if (scenario.horizon <= 0) {
    throw std::invalid_argument("Scenario: horizon <= 0");
  }
  if (scenario.regions.empty()) {
    for (const auto r : trace::canonical_regions()) {
      scenario.regions.emplace_back(r);
    }
  }
  if (scenario.sizes.empty()) {
    scenario.sizes.assign(cloud::kAllSizes.begin(), cloud::kAllSizes.end());
  }
  return scenario;
}

World::World(Scenario scenario, std::shared_ptr<const MarketTraceSet> traces)
    : scenario_(normalized_scenario(std::move(scenario))),
      rng_factory_(scenario_.seed) {
  if (traces == nullptr) {
    traces = MarketTraceSet::generate(scenario_);
  } else if (traces->key() != MarketTraceSet::cache_key(scenario_)) {
    throw std::invalid_argument(
        "World: trace set was generated for a different scenario");
  }
  traces_ = std::move(traces);

  engine_ = sim::make_simulation_engine();
  // Always build and attach the injector — an empty plan makes zero draws,
  // so fault-free worlds behave identically with or without it.
  faults_ = std::make_unique<faults::FaultInjector>(*engine_, rng_factory_,
                                                    scenario_.fault_plan);
  engine_->set_fault_injector(faults_.get());
  provider_ = std::make_unique<cloud::CloudProvider>(*engine_, rng_factory_,
                                                     scenario_.grace_period);

  for (const auto& region : scenario_.regions) {
    provider_->set_allocation_latency(region, table1_allocation_latency(region));
  }
  // Entries are in the provider's canonical registration order (region order
  // x size order), so all_markets() — and so each market's index() — is the
  // same for a memoized set.
  for (const auto& entry : traces_->markets()) {
    provider_->add_market(entry.id, entry.prices, entry.on_demand);
  }
  provider_->start();
}

}  // namespace spothost::sched

// Scenario description and World builder: wires a simulation, a synthetic
// (or trace-driven) cloud, and allocation-latency profiles into a runnable
// experiment world.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cloud/provider.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "simcore/engine.hpp"
#include "simcore/rng.hpp"
#include "trace/profiles.hpp"

namespace spothost::sched {

struct Scenario {
  std::uint64_t seed = 42;
  sim::SimTime horizon = 30 * sim::kDay;  ///< the paper's month-long window
  /// Regions to instantiate (default: the four canonical ones).
  std::vector<std::string> regions{};
  /// Sizes to instantiate per region (default: all four).
  std::vector<cloud::InstanceSize> sizes{};
  sim::SimTime grace_period = 120 * sim::kSecond;
  /// Directory of measured price traces. For each market, the builder looks
  /// for "<region>_<size>.csv" (trace/csv format — e.g. a converted EC2
  /// DescribeSpotPriceHistory export) and uses it instead of the synthetic
  /// model; markets without a file stay synthetic. Traces shorter than the
  /// horizon are rejected. Empty = fully synthetic.
  std::string trace_dir{};
  /// Faults to inject (src/faults). The default (empty) plan makes zero RNG
  /// draws and emits zero events, so runs stay byte-identical to a build
  /// without the subsystem.
  faults::FaultPlan fault_plan{};
};

/// Allocation latencies per region family, from Table 1.
cloud::AllocationLatency table1_allocation_latency(const std::string& region);

/// `scenario` with empty regions/sizes replaced by the canonical defaults,
/// validated (horizon > 0). World and MarketTraceSet both build from this
/// normal form, so their notions of scenario identity agree.
[[nodiscard]] Scenario normalized_scenario(Scenario scenario);

class MarketTraceSet;  // sched/market_traces.hpp

/// A fully wired experiment world. Construction generates all market traces
/// (seeded from the scenario seed) — or copies them from a pre-generated
/// MarketTraceSet — and starts the provider's price feeds; attach a
/// scheduler (built over clock()) and call engine().run_until(horizon()).
///
/// The engine seam: policy components take clock() (sim::Clock — scheduling
/// only), run control goes through engine() (sim::Engine — run_until /
/// set_tracer / dispatched). The default engine is a sim::Simulation; pass
/// one explicitly (e.g. a live::WallClock in fast-replay) to run the exact
/// same wiring on wall time.
class World {
 public:
  explicit World(Scenario scenario);

  /// Builds on a memoized trace set (sched::TraceCache) instead of
  /// regenerating: `traces` must have been generated for an identical
  /// scenario (same cache_key). Behaviour is byte-identical to the
  /// generating constructor; only the trace-generation work is skipped.
  World(Scenario scenario, std::shared_ptr<const MarketTraceSet> traces);

  /// Same wiring over a caller-supplied engine (must be freshly constructed:
  /// time 0, nothing scheduled). nullptr = the default sim::Simulation.
  World(Scenario scenario, std::shared_ptr<const MarketTraceSet> traces,
        std::unique_ptr<sim::Engine> engine);

  /// The scheduling seam policy components take.
  [[nodiscard]] sim::Clock& clock() noexcept { return *engine_; }

  /// Run control: run_until, set_tracer, dispatched, ...
  [[nodiscard]] sim::Engine& engine() noexcept { return *engine_; }
  [[nodiscard]] const sim::Engine& engine() const noexcept { return *engine_; }

  [[nodiscard]] cloud::CloudProvider& provider() noexcept { return *provider_; }
  [[nodiscard]] const cloud::CloudProvider& provider() const noexcept {
    return *provider_;
  }
  [[nodiscard]] const sim::RngFactory& rng() const noexcept { return rng_factory_; }
  [[nodiscard]] sim::SimTime horizon() const noexcept { return scenario_.horizon; }
  [[nodiscard]] const Scenario& scenario() const noexcept { return scenario_; }
  /// The fault injector built from scenario.fault_plan — always present and
  /// attached to the simulation (an empty plan injects nothing).
  [[nodiscard]] faults::FaultInjector& faults() noexcept { return *faults_; }
  [[nodiscard]] const faults::FaultInjector& faults() const noexcept {
    return *faults_;
  }

  /// A fresh named random stream tied to the scenario seed.
  [[nodiscard]] sim::RngStream stream(std::string_view name) const {
    return rng_factory_.stream(name);
  }

  /// The immutable trace set this world's markets were built from.
  [[nodiscard]] const std::shared_ptr<const MarketTraceSet>& trace_set()
      const noexcept {
    return traces_;
  }

 private:
  Scenario scenario_;
  sim::RngFactory rng_factory_;
  std::shared_ptr<const MarketTraceSet> traces_;
  std::unique_ptr<sim::Engine> engine_;
  std::unique_ptr<faults::FaultInjector> faults_;
  std::unique_ptr<cloud::CloudProvider> provider_;
};

}  // namespace spothost::sched

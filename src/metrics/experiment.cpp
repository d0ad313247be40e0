#include "metrics/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "obs/sink.hpp"
#include "sched/market_selection.hpp"

namespace spothost::metrics {

RunMetrics run_hosting_scenario(
    const sched::Scenario& scenario, const sched::SchedulerConfig& config,
    std::shared_ptr<const sched::MarketTraceSet> traces, obs::Tracer* tracer,
    obs::RunProfile* profile) {
  sched::World world(scenario, std::move(traces));
  workload::AlwaysOnService service("hosted-service",
                                    virt::VmSpec{});  // spec set by scheduler
  if (tracer != nullptr) {
    world.engine().set_tracer(tracer);
    service.set_tracer(tracer);
  }
  sched::MarketWatcher watcher(world.provider());
  sched::CloudScheduler scheduler(world.clock(), world.provider(), watcher, service,
                                  config, world.stream("scheduler-timing"));
  scheduler.start();
  {
    std::optional<obs::ProfileScope> scope;
    if (profile != nullptr) scope.emplace(world.engine(), *profile);
    world.engine().run_until(world.horizon());
  }
  world.provider().finalize(world.horizon());
  scheduler.finalize(world.horizon());
  if (tracer != nullptr) tracer->flush();

  // Normalization baseline: home-region on-demand price, or the cheapest
  // on-demand price across the allowed regions for multi-region scenarios.
  double baseline_price = sched::effective_on_demand_price(
      world.provider(), config.home_market.region, config.home_market.size);
  if (config.scope == sched::MarketScope::kMultiRegion) {
    const auto& regions = config.allowed_regions.empty()
                              ? world.provider().regions()
                              : config.allowed_regions;
    const std::string cheapest = sched::cheapest_on_demand_region(
        world.provider(), regions, config.home_market.size);
    baseline_price = sched::effective_on_demand_price(world.provider(), cheapest,
                                                      config.home_market.size);
  }
  RunMetrics m = compute_run_metrics(world.provider(), scheduler, service,
                                     world.horizon(), baseline_price);
  m.faults_injected = static_cast<int>(world.faults().injected_total());
  return m;
}

sched::FleetMetrics run_fleet_scenario(const sched::Scenario& scenario,
                                       const sched::FleetConfig& config,
                                       obs::Tracer* tracer,
                                       obs::RunProfile* profile) {
  sched::World world(scenario);
  // Tracer first: FleetScheduler::start() wires each service's availability
  // events to the engine's tracer, resolved at start time.
  if (tracer != nullptr) world.engine().set_tracer(tracer);
  sched::FleetScheduler fleet(world.clock(), world.provider(), config,
                              world.rng());
  fleet.start();
  {
    std::optional<obs::ProfileScope> scope;
    if (profile != nullptr) scope.emplace(world.engine(), *profile);
    world.engine().run_until(world.horizon());
  }
  world.provider().finalize(world.horizon());
  fleet.finalize(world.horizon());
  if (tracer != nullptr) tracer->flush();
  return fleet.metrics(world.horizon());
}

Aggregate Aggregate::of(std::span<const double> xs) {
  Aggregate a;
  if (xs.empty()) return a;
  // Welford's online algorithm: one pass for mean and variance (population),
  // numerically stabler than the naive sum-of-squares.
  a.min = xs.front();
  a.max = xs.front();
  double mean = 0.0;
  double m2 = 0.0;
  double n = 0.0;
  for (const double x : xs) {
    n += 1.0;
    const double delta = x - mean;
    mean += delta / n;
    m2 += delta * (x - mean);
    a.min = std::min(a.min, x);
    a.max = std::max(a.max, x);
  }
  a.mean = mean;
  a.stddev = std::sqrt(m2 / n);
  return a;
}

AggregatedMetrics aggregate_runs(std::vector<RunMetrics> results) {
  AggregatedMetrics agg;
  agg.runs = static_cast<int>(results.size());
  auto collect = [&](auto getter) {
    std::vector<double> xs;
    xs.reserve(results.size());
    for (const auto& r : results) xs.push_back(getter(r));
    return Aggregate::of(xs);
  };
  agg.normalized_cost_pct =
      collect([](const RunMetrics& r) { return r.normalized_cost_pct; });
  agg.unavailability_pct =
      collect([](const RunMetrics& r) { return r.unavailability_pct; });
  agg.forced_per_hour = collect([](const RunMetrics& r) { return r.forced_per_hour; });
  agg.planned_reverse_per_hour =
      collect([](const RunMetrics& r) { return r.planned_reverse_per_hour; });
  agg.downtime_s = collect([](const RunMetrics& r) { return r.downtime_s; });
  agg.cancelled_planned = collect(
      [](const RunMetrics& r) { return static_cast<double>(r.cancelled_planned); });
  agg.per_run = std::move(results);
  return agg;
}

}  // namespace spothost::metrics

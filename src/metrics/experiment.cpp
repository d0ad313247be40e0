#include "metrics/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <future>
#include <optional>
#include <stdexcept>
#include <utility>

#include "exec/thread_pool.hpp"
#include "obs/ring_sink.hpp"
#include "obs/sink.hpp"
#include "sched/market_selection.hpp"

namespace spothost::metrics {

std::string_view to_string(Execution execution) noexcept {
  switch (execution) {
    case Execution::kSerial: return "serial";
    case Execution::kParallel: return "parallel";
  }
  return "?";
}

RunMetrics run_hosting_scenario(const sched::Scenario& scenario,
                                const sched::SchedulerConfig& config) {
  return run_hosting_scenario(scenario, config, nullptr, nullptr);
}

RunMetrics run_hosting_scenario(const sched::Scenario& scenario,
                                const sched::SchedulerConfig& config,
                                obs::Tracer* tracer, obs::RunProfile* profile) {
  return run_hosting_scenario(scenario, config, nullptr, tracer, profile);
}

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
  sched::CloudScheduler scheduler(world.clock(), world.provider(), service,
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

ExperimentRunner::ExperimentRunner(int runs, std::uint64_t base_seed,
                                   Execution execution)
    : runs_(runs), base_seed_(base_seed), execution_(execution) {
  if (runs_ <= 0) throw std::invalid_argument("ExperimentRunner: runs must be > 0");
}

ExperimentRunner& ExperimentRunner::capture_traces(std::size_t ring_capacity) {
  if (ring_capacity == 0) {
    throw std::invalid_argument("capture_traces: ring_capacity must be > 0");
  }
  trace_capacity_ = ring_capacity;
  return *this;
}

ExperimentRunner& ExperimentRunner::memoize_traces(
    std::shared_ptr<sched::TraceCache> cache) {
  trace_cache_ = std::move(cache);
  return *this;
}

AggregatedMetrics ExperimentRunner::run(const sched::Scenario& scenario,
                                        const sched::SchedulerConfig& config) const {
  auto market_traces = [&](const sched::Scenario& s) {
    return trace_cache_ ? trace_cache_->get(s)
                        : std::shared_ptr<const sched::MarketTraceSet>();
  };
  if (trace_capacity_ == 0) {
    return run_indexed([&](int, std::uint64_t seed) {
      sched::Scenario s = scenario;
      s.seed = seed;
      return run_hosting_scenario(s, config, market_traces(s));
    });
  }
  // Trace capture: each seed gets its own tracer + ring buffer; slots are
  // preassigned by index, so parallel runs never contend.
  std::vector<SeedTrace> traces(static_cast<std::size_t>(runs_));
  auto agg = run_indexed([&](int index, std::uint64_t seed) {
    sched::Scenario s = scenario;
    s.seed = seed;
    obs::Tracer tracer;
    obs::RingBufferSink ring(trace_capacity_);
    tracer.add_sink(&ring);
    SeedTrace& slot = traces[static_cast<std::size_t>(index)];
    slot.seed = seed;
    RunMetrics rm =
        run_hosting_scenario(s, config, market_traces(s), &tracer, &slot.profile);
    slot.events = ring.events();
    slot.dropped = ring.dropped();
    return rm;
  });
  agg.traces = std::move(traces);
  return agg;
}

AggregatedMetrics ExperimentRunner::run_with(
    const std::function<RunMetrics(std::uint64_t seed)>& body) const {
  return run_indexed([&body](int, std::uint64_t seed) { return body(seed); });
}

AggregatedMetrics ExperimentRunner::run_indexed(
    const std::function<RunMetrics(int index, std::uint64_t seed)>& body) const {
  std::vector<RunMetrics> results(static_cast<std::size_t>(runs_));
  if (execution_ == Execution::kParallel) {
    // Bounded fan-out: every run is one task on the shared fixed-size pool,
    // so peak thread count is SPOTHOST_THREADS no matter how many runs.
    // Results land in preassigned seed-order slots, making the aggregate
    // bit-identical to serial execution.
    auto& pool = exec::ThreadPool::shared();
    std::vector<std::future<RunMetrics>> futures;
    futures.reserve(static_cast<std::size_t>(runs_));
    for (int i = 0; i < runs_; ++i) {
      const std::uint64_t seed = run_seed(base_seed_, i);
      futures.push_back(pool.submit([&body, i, seed] { return body(i, seed); }));
    }
    for (int i = 0; i < runs_; ++i) {
      results[static_cast<std::size_t>(i)] = futures[static_cast<std::size_t>(i)].get();
    }
  } else {
    for (int i = 0; i < runs_; ++i) {
      results[static_cast<std::size_t>(i)] = body(i, run_seed(base_seed_, i));
    }
  }
  return aggregate_runs(std::move(results));
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

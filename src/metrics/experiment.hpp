// Experiment harness: one hosting run end-to-end, and the per-seed
// aggregation a metrics::SweepRunner (metrics/sweep.hpp) applies to the
// independent runs it fans out over the shared worker pool.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "metrics/run_metrics.hpp"
#include "obs/profile.hpp"
#include "sched/baselines.hpp"
#include "sched/config.hpp"
#include "sched/fleet.hpp"
#include "sched/market_traces.hpp"

namespace spothost::obs {
class Tracer;  // obs/sink.hpp
}

namespace spothost::metrics {

/// One simulated month of hosting under `config` inside a world built from
/// `scenario` (the scenario's seed is used as-is; SweepRunner varies it).
/// A non-null `traces` is a pre-generated MarketTraceSet for this exact
/// scenario (see sched::TraceCache), used instead of regenerating every
/// market trace; results are identical either way. A non-null `tracer` is
/// attached to the world's simulation and service for the run (and flushed
/// afterwards); a non-null `profile` receives wall-clock dispatch
/// throughput.
RunMetrics run_hosting_scenario(
    const sched::Scenario& scenario, const sched::SchedulerConfig& config,
    std::shared_ptr<const sched::MarketTraceSet> traces = nullptr,
    obs::Tracer* tracer = nullptr, obs::RunProfile* profile = nullptr);

/// One simulated month of FLEET hosting: `config.num_services` services in
/// one world, sharing a MarketWatcher. A non-null `tracer` observes the
/// run; a non-null `profile` records dispatch throughput.
sched::FleetMetrics run_fleet_scenario(const sched::Scenario& scenario,
                                       const sched::FleetConfig& config,
                                       obs::Tracer* tracer = nullptr,
                                       obs::RunProfile* profile = nullptr);

struct Aggregate {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;

  /// Single-pass Welford moments (plus min/max) over the samples.
  static Aggregate of(std::span<const double> xs);
};

/// How SweepRunner schedules its cells.
enum class Execution {
  kSerial,    ///< one cell after another, on the calling thread
  kParallel,  ///< shared exec::ThreadPool workers; results stay in seed order
};

struct AggregatedMetrics {
  Aggregate normalized_cost_pct;
  Aggregate unavailability_pct;
  Aggregate forced_per_hour;
  Aggregate planned_reverse_per_hour;
  Aggregate downtime_s;
  Aggregate cancelled_planned;
  int runs = 0;
  std::vector<RunMetrics> per_run;  ///< in seed order
};

/// Aggregates per-run metrics (in seed order) into the struct above — the
/// one aggregation path, so a sweep's tables equal a serial loop of
/// run_hosting_scenario calls aggregated here.
[[nodiscard]] AggregatedMetrics aggregate_runs(std::vector<RunMetrics> results);

/// The seed of run `index` under `base_seed` — SweepRunner::seed_for
/// derives per-run seeds exactly this way, so memoized traces and printed
/// tables line up across harnesses.
[[nodiscard]] constexpr std::uint64_t run_seed(std::uint64_t base_seed,
                                               int index) noexcept {
  return base_seed + static_cast<std::uint64_t>(index) * 7919u;
}

}  // namespace spothost::metrics

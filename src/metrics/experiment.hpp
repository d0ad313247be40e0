// Experiment harness: runs a hosting scenario end-to-end and aggregates
// metrics across seeds. Runs are fully independent worlds, so they execute
// in parallel — fanned out over the shared fixed-size worker pool
// (exec::ThreadPool), never one thread per run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "metrics/run_metrics.hpp"
#include "obs/event.hpp"
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
/// `scenario` (the scenario's seed is used as-is; the runner varies it).
RunMetrics run_hosting_scenario(const sched::Scenario& scenario,
                                const sched::SchedulerConfig& config);

/// Observed form: a non-null `tracer` is attached to the world's simulation
/// and service for the duration of the run (and flushed afterwards); a
/// non-null `profile` receives wall-clock dispatch throughput.
RunMetrics run_hosting_scenario(const sched::Scenario& scenario,
                                const sched::SchedulerConfig& config,
                                obs::Tracer* tracer, obs::RunProfile* profile);

/// Memoized form: the world is built on `traces` (a pre-generated
/// MarketTraceSet for this exact scenario — see sched::TraceCache) instead
/// of regenerating every market trace. Null `traces` falls back to
/// generating inline; results are identical either way.
RunMetrics run_hosting_scenario(
    const sched::Scenario& scenario, const sched::SchedulerConfig& config,
    std::shared_ptr<const sched::MarketTraceSet> traces,
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

/// How the runner schedules its per-seed runs. Replaces the old
/// `bool parallel` flag.
enum class Execution {
  kSerial,    ///< one run after another, on the calling thread
  kParallel,  ///< shared exec::ThreadPool workers; results stay in seed order
};

std::string_view to_string(Execution execution) noexcept;

/// Captured observability for one seed's run (capture_traces() opt-in).
struct SeedTrace {
  std::uint64_t seed = 0;
  std::vector<obs::TraceEvent> events;  ///< oldest first (ring survivors)
  std::uint64_t dropped = 0;            ///< overwritten by ring overflow
  obs::RunProfile profile;              ///< wall-clock dispatch throughput
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
  /// One entry per run, in seed order, when capture_traces() was requested
  /// (empty otherwise). Only populated by run(), not run_with().
  std::vector<SeedTrace> traces;
};

/// Aggregates per-run metrics (in seed order) into the struct above — the
/// one aggregation path shared by ExperimentRunner and SweepRunner, so a
/// sweep's tables are bit-identical to per-arm runner calls.
[[nodiscard]] AggregatedMetrics aggregate_runs(std::vector<RunMetrics> results);

/// The seed of run `index` under `base_seed` — every runner derives per-run
/// seeds exactly this way, so memoized traces and printed tables line up
/// across harnesses.
[[nodiscard]] constexpr std::uint64_t run_seed(std::uint64_t base_seed,
                                               int index) noexcept {
  return base_seed + static_cast<std::uint64_t>(index) * 7919u;
}

class ExperimentRunner {
 public:
  /// `runs` independent seeds derived from `base_seed`.
  explicit ExperimentRunner(int runs = 5, std::uint64_t base_seed = 9001,
                            Execution execution = Execution::kParallel);

  /// Opt into per-seed trace capture: each run() seed records its events
  /// into a ring buffer of `ring_capacity` and reports them (with the wall
  /// clock profile) in AggregatedMetrics::traces, in seed order.
  ExperimentRunner& capture_traces(std::size_t ring_capacity = 1 << 16);

  /// Opt into per-seed market-trace memoization: run() resolves each seed's
  /// market traces through `cache` instead of regenerating them, so
  /// repeated run() calls over the same scenario (a multi-arm bench) build
  /// the traces once per seed. Results are unchanged; only work is saved.
  ExperimentRunner& memoize_traces(std::shared_ptr<sched::TraceCache> cache);

  /// Runs `config` against per-seed variants of `scenario` and aggregates.
  [[nodiscard]] AggregatedMetrics run(const sched::Scenario& scenario,
                                      const sched::SchedulerConfig& config) const;

  /// Generic form: `body(seed)` produces the per-run metrics.
  [[nodiscard]] AggregatedMetrics run_with(
      const std::function<RunMetrics(std::uint64_t seed)>& body) const;

 private:
  [[nodiscard]] AggregatedMetrics run_indexed(
      const std::function<RunMetrics(int index, std::uint64_t seed)>& body) const;

  int runs_;
  std::uint64_t base_seed_;
  Execution execution_;
  std::size_t trace_capacity_ = 0;  ///< 0 = no capture
  std::shared_ptr<sched::TraceCache> trace_cache_;  ///< null = generate inline
};

}  // namespace spothost::metrics

// Sweep execution engine, the one multi-seed runner: declare every
// configuration arm of a figure or ablation up front (a single
// configuration is one arm), then fan all (arm x seed) cells across the
// shared worker pool at once.
//
// Compared with running one arm after another, a sweep
//   * keeps the machine busy across arm boundaries — the pool schedules
//     arms*runs cells instead of draining between arms, and
//   * memoizes market traces — each market is generated once per seed, and
//     cells that share (scenario, seed) share one MarketTraceSet (without
//     this, every fig08 arm would regenerate its region's four traces, and
//     fig09's region pairs would rebuild markets fig08 already built).
// A cell is run_hosting_scenario under run_seed, aggregated by
// aggregate_runs, so every printed table is byte-identical to a serial
// loop of single runs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "metrics/experiment.hpp"
#include "sched/market_traces.hpp"

namespace spothost::metrics {

/// One configuration arm: a label for reporting plus the (scenario, config)
/// pair to run under every seed.
struct SweepArm {
  std::string label;
  sched::Scenario scenario;
  sched::SchedulerConfig config;
};

class SweepRunner {
 public:
  explicit SweepRunner(int runs = 5, std::uint64_t base_seed = 9001,
                       Execution execution = Execution::kParallel);

  /// Declares an arm; returns its index into run_all()'s result vector.
  int add_arm(std::string label, sched::Scenario scenario,
              sched::SchedulerConfig config);

  [[nodiscard]] int arm_count() const noexcept {
    return static_cast<int>(arms_.size());
  }
  [[nodiscard]] const SweepArm& arm(int index) const {
    return arms_.at(static_cast<std::size_t>(index));
  }
  [[nodiscard]] int runs() const noexcept { return runs_; }
  [[nodiscard]] std::uint64_t seed_for(int run_index) const noexcept {
    return run_seed(base_seed_, run_index);
  }

  /// Runs every (arm x seed) cell — all at once on the shared pool under
  /// Execution::kParallel — and returns per-arm aggregates in add_arm
  /// order. Callable repeatedly; traces stay memoized across calls. If a
  /// cell throws (an invalid config, a trace file shorter than the
  /// horizon), every cell still runs to completion first; then the first
  /// failure in cell order is rethrown.
  [[nodiscard]] std::vector<AggregatedMetrics> run_all() const;

  /// The cache backing this sweep's market-trace memoization.
  [[nodiscard]] const std::shared_ptr<sched::TraceCache>& trace_cache()
      const noexcept {
    return cache_;
  }

  /// The memoized trace set of `scenario` under seed_for(run_index) —
  /// a cache hit after run_all(). Lets benches derive trace statistics
  /// (price correlations, stddevs) without building another World.
  [[nodiscard]] std::shared_ptr<const sched::MarketTraceSet> traces_for(
      const sched::Scenario& scenario, int run_index = 0) const;

 private:
  int runs_;
  std::uint64_t base_seed_;
  Execution execution_;
  std::vector<SweepArm> arms_;
  std::shared_ptr<sched::TraceCache> cache_;
};

}  // namespace spothost::metrics

// Shared helpers for the experiment harness binaries. Each bench reproduces
// one table or figure of the paper and prints the same rows/series the paper
// reports, with the paper's value quoted alongside where applicable.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "spothost.hpp"

namespace spothost::bench {

inline constexpr int kDefaultRuns = 5;
inline constexpr std::uint64_t kBaseSeed = 20150615;  // HPDC'15 opening day

// All env knobs parse through exec::env_int / env_u64: a set-but-garbage
// value ("3abc", which atoi would accept) warns on stderr and falls back
// instead of silently changing the experiment. SPOTHOST_THREADS — the
// worker-pool size — is read the same way by exec::ThreadPool.

/// Seed fan-out count: SPOTHOST_RUNS env var, else `fallback`. Lets CI run
/// the figure benches cheaply (SPOTHOST_RUNS=1) without editing sources.
inline int env_runs(int fallback = kDefaultRuns) {
  return static_cast<int>(exec::env_int("SPOTHOST_RUNS", fallback, 1, 1000000));
}

/// Base seed: SPOTHOST_SEED env var, else `fallback`.
inline std::uint64_t env_seed(std::uint64_t fallback = kBaseSeed) {
  return exec::env_u64("SPOTHOST_SEED", fallback);
}

/// Scenario with the canonical four regions and four sizes, 30 days.
inline sched::Scenario full_scenario() {
  sched::Scenario s;
  s.horizon = 30 * sim::kDay;
  return s;
}

/// Scenario restricted to one region (all four sizes).
inline sched::Scenario region_scenario(const std::string& region) {
  sched::Scenario s = full_scenario();
  s.regions = {region};
  return s;
}

/// Sweep harness under the env knobs: declare arms, then run_all(). Each
/// arm runs seeds run_seed(env_seed(), i) for i < env_runs(), whichever
/// sweep it is declared on, so regrouping a bench's arms never changes its
/// table.
inline metrics::SweepRunner default_sweep() {
  return metrics::SweepRunner(env_runs(), env_seed());
}

inline cloud::MarketId market(const std::string& region, const char* size) {
  return cloud::MarketId{region, cloud::size_from_string(size)};
}

/// Column block shared by the hosting benches.
inline std::vector<std::string> hosting_row(
    const std::string& label, const metrics::AggregatedMetrics& agg) {
  return {label,
          metrics::fmt(agg.normalized_cost_pct.mean, 1),
          metrics::fmt(agg.unavailability_pct.mean, 4),
          metrics::fmt(agg.forced_per_hour.mean, 4),
          metrics::fmt(agg.planned_reverse_per_hour.mean, 4)};
}

}  // namespace spothost::bench

#include "metrics/sweep.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace spothost::metrics {
namespace {

using cloud::InstanceSize;
using sim::kDay;

sched::Scenario small_scenario() {
  sched::Scenario s;
  s.horizon = 5 * kDay;
  s.regions = {"us-east-1a"};
  s.sizes = {InstanceSize::kSmall};
  return s;
}

cloud::MarketId home() { return {"us-east-1a", InstanceSize::kSmall}; }

// Bit-identical, not approximately equal: the sweep engine must not perturb
// any figure's numbers relative to the serial per-arm harness.
void expect_identical(const AggregatedMetrics& a, const AggregatedMetrics& b) {
  EXPECT_EQ(a.runs, b.runs);
  ASSERT_EQ(a.per_run.size(), b.per_run.size());
  for (std::size_t i = 0; i < a.per_run.size(); ++i) {
    EXPECT_EQ(a.per_run[i].total_cost, b.per_run[i].total_cost);
    EXPECT_EQ(a.per_run[i].normalized_cost_pct, b.per_run[i].normalized_cost_pct);
    EXPECT_EQ(a.per_run[i].unavailability_pct, b.per_run[i].unavailability_pct);
    EXPECT_EQ(a.per_run[i].downtime_s, b.per_run[i].downtime_s);
    EXPECT_EQ(a.per_run[i].forced, b.per_run[i].forced);
    EXPECT_EQ(a.per_run[i].planned, b.per_run[i].planned);
    EXPECT_EQ(a.per_run[i].market_switches, b.per_run[i].market_switches);
  }
  EXPECT_EQ(a.normalized_cost_pct.mean, b.normalized_cost_pct.mean);
  EXPECT_EQ(a.normalized_cost_pct.stddev, b.normalized_cost_pct.stddev);
  EXPECT_EQ(a.unavailability_pct.mean, b.unavailability_pct.mean);
  EXPECT_EQ(a.unavailability_pct.stddev, b.unavailability_pct.stddev);
  EXPECT_EQ(a.forced_per_hour.mean, b.forced_per_hour.mean);
  EXPECT_EQ(a.planned_reverse_per_hour.mean, b.planned_reverse_per_hour.mean);
}

TEST(SweepRunner, RejectsNonPositiveRuns) {
  EXPECT_THROW(SweepRunner(0), std::invalid_argument);
  EXPECT_THROW(SweepRunner(-3), std::invalid_argument);
}

TEST(SweepRunner, SeedsMatchExperimentRunnerDerivation) {
  const SweepRunner sweep(4, 500);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(sweep.seed_for(i), run_seed(500, i));
    EXPECT_EQ(sweep.seed_for(i), 500u + static_cast<std::uint64_t>(i) * 7919u);
  }
}

TEST(SweepRunner, ParallelMatchesSerialBitIdentically) {
  auto build = [](Execution execution) {
    SweepRunner sweep(3, 500, execution);
    sweep.add_arm("proactive", small_scenario(), sched::proactive_config(home()));
    sweep.add_arm("reactive", small_scenario(), sched::reactive_config(home()));
    return sweep.run_all();
  };
  const auto par = build(Execution::kParallel);
  const auto ser = build(Execution::kSerial);
  ASSERT_EQ(par.size(), 2u);
  ASSERT_EQ(ser.size(), 2u);
  for (std::size_t a = 0; a < par.size(); ++a) {
    expect_identical(par[a], ser[a]);
  }
}

TEST(SweepRunner, MatchesPerArmExperimentRunner) {
  const auto scenario = small_scenario();
  SweepRunner sweep(3, 500);
  const int pro = sweep.add_arm("pro", scenario, sched::proactive_config(home()));
  const int rea = sweep.add_arm("rea", scenario, sched::reactive_config(home()));
  const auto results = sweep.run_all();

  const ExperimentRunner runner(3, 500);
  expect_identical(results[static_cast<std::size_t>(pro)],
                   runner.run(scenario, sched::proactive_config(home())));
  expect_identical(results[static_cast<std::size_t>(rea)],
                   runner.run(scenario, sched::reactive_config(home())));
}

TEST(SweepRunner, SharesTraceGenerationAcrossArms) {
  SweepRunner sweep(2, 500);
  const auto scenario = small_scenario();
  sweep.add_arm("a", scenario, sched::proactive_config(home()));
  sweep.add_arm("b", scenario, sched::reactive_config(home()));
  sweep.add_arm("c", scenario, sched::pure_spot_config(home()));
  const auto results = sweep.run_all();
  EXPECT_EQ(results.size(), 3u);
  // 3 arms x 2 seeds = 6 cells, but only one generation per seed.
  EXPECT_EQ(sweep.trace_cache()->generations(), 2u);
  EXPECT_EQ(sweep.trace_cache()->hits(), 4u);
}

TEST(SweepRunner, FaultPlanDoesNotSplitTheTraceCache) {
  // Fault injection perturbs the scheduler, not the market traces, so arms
  // differing only in fault plan share memoized sets.
  SweepRunner sweep(1, 500);
  const auto plain = small_scenario();
  auto faulty = plain;
  for (const faults::FaultKind kind : faults::kAllFaultKinds) {
    faulty.fault_plan.with_rate(kind, 0.05);
  }
  sweep.add_arm("plain", plain, sched::proactive_config(home()));
  sweep.add_arm("faulty", faulty, sched::proactive_config(home()));
  (void)sweep.run_all();
  EXPECT_EQ(sweep.trace_cache()->generations(), 1u);
}

TEST(SweepRunner, TracesForReturnsTheMemoizedSet) {
  SweepRunner sweep(2, 500);
  const auto scenario = small_scenario();
  sweep.add_arm("pro", scenario, sched::proactive_config(home()));
  (void)sweep.run_all();
  const auto generations = sweep.trace_cache()->generations();

  const auto traces = sweep.traces_for(scenario);
  ASSERT_NE(traces, nullptr);
  EXPECT_EQ(traces->seed(), sweep.seed_for(0));
  EXPECT_EQ(traces->markets().size(), 1u);
  // Served from the memo, not regenerated.
  EXPECT_EQ(sweep.trace_cache()->generations(), generations);

  const auto second = sweep.traces_for(scenario, 1);
  EXPECT_EQ(second->seed(), sweep.seed_for(1));
}

TEST(SweepRunner, ArmAccessorsRoundTrip) {
  SweepRunner sweep(1, 7);
  EXPECT_EQ(sweep.arm_count(), 0);
  const int idx =
      sweep.add_arm("label", small_scenario(), sched::proactive_config(home()));
  EXPECT_EQ(idx, 0);
  EXPECT_EQ(sweep.arm_count(), 1);
  EXPECT_EQ(sweep.arm(0).label, "label");
  EXPECT_EQ(sweep.runs(), 1);
  EXPECT_THROW((void)sweep.arm(1), std::out_of_range);
}

}  // namespace
}  // namespace spothost::metrics

#include "metrics/experiment.hpp"

#include <gtest/gtest.h>

#include <array>

#include "metrics/sweep.hpp"

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

TEST(Aggregate, OfComputesMoments) {
  const std::array<double, 4> xs{1.0, 2.0, 3.0, 4.0};
  const auto a = Aggregate::of(xs);
  EXPECT_DOUBLE_EQ(a.mean, 2.5);
  EXPECT_DOUBLE_EQ(a.min, 1.0);
  EXPECT_DOUBLE_EQ(a.max, 4.0);
  EXPECT_NEAR(a.stddev, std::sqrt(1.25), 1e-12);
}

TEST(Aggregate, EmptyIsZero) {
  const std::vector<double> none;
  const auto a = Aggregate::of(none);
  EXPECT_DOUBLE_EQ(a.mean, 0.0);
  EXPECT_DOUBLE_EQ(a.stddev, 0.0);
}

TEST(RunHostingScenario, PureSpotHasWorseAvailabilityThanProactive) {
  // The Fig. 11 headline, as a property over a few seeds.
  const cloud::MarketId home{"us-east-1a", InstanceSize::kSmall};
  SweepRunner sweep(3, 42);
  sweep.add_arm("proactive", small_scenario(), sched::proactive_config(home));
  sweep.add_arm("pure-spot", small_scenario(), sched::pure_spot_config(home));
  const auto results = sweep.run_all();
  EXPECT_GT(results[1].unavailability_pct.mean,
            results[0].unavailability_pct.mean);
}

}  // namespace
}  // namespace spothost::metrics

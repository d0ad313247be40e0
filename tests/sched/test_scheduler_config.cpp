#include "sched/scheduler_config.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace spothost::sched {
namespace {

using cloud::InstanceSize;
using cloud::MarketId;

TEST(SchedulerConfigValidate, DefaultsAreValid) {
  SchedulerConfig cfg;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(SchedulerConfigValidate, RejectsEmptyHomeRegion) {
  SchedulerConfig cfg;
  cfg.home_market = MarketId{"", InstanceSize::kSmall};
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(SchedulerConfigValidate, RejectsNegativeReverseMargin) {
  SchedulerConfig cfg;
  cfg.reverse_price_margin = -0.1;
  try {
    cfg.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("reverse_price_margin"),
              std::string::npos);
  }
}

TEST(SchedulerConfigValidate, RejectsNegativeJitterCv) {
  SchedulerConfig cfg;
  cfg.timing_jitter_cv = -0.01;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(SchedulerConfigValidate, RejectsNegativeCapacityOverride) {
  SchedulerConfig cfg;
  cfg.capacity_units_override = -1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(SchedulerConfigValidate, RejectsNonPositiveBidMultiple) {
  SchedulerConfig cfg;
  cfg.bid.proactive_multiple = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(SchedulerConfigValidate, RejectsBadStabilityKnobs) {
  SchedulerConfig cfg;
  cfg.stability_penalty_weight = -1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.stability_penalty_weight = 1.0;
  cfg.stability_window = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(SchedulerConfigEnums, Names) {
  EXPECT_EQ(to_string(Fallback::kOnDemand), "on-demand");
  EXPECT_EQ(to_string(Fallback::kPureSpot), "pure-spot");
  EXPECT_EQ(to_string(PlannedTiming::kHourEnd), "hour-end");
  EXPECT_EQ(to_string(PlannedTiming::kImmediate), "immediate");
  EXPECT_EQ(to_string(StabilityPolicy::kIgnore), "ignore");
  EXPECT_EQ(to_string(StabilityPolicy::kPenalizeVolatility),
            "penalize-volatility");
}

}  // namespace
}  // namespace spothost::sched

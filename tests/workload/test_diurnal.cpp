#include "workload/diurnal.hpp"

#include <gtest/gtest.h>

namespace spothost::workload {
namespace {

using sim::kDay;
using sim::kHour;
using sim::kMinute;

const DiurnalPattern kPattern{0.25, 1.0, 20.0};

TEST(Diurnal, PeakAndTroughValues) {
  // Peak at 20:00, trough 12 h opposite (08:00).
  EXPECT_NEAR(kPattern.load_at(20 * kHour), 1.0, 1e-12);
  EXPECT_NEAR(kPattern.load_at(8 * kHour), 0.25, 1e-12);
}

TEST(Diurnal, PeriodIs24Hours) {
  for (int h = 0; h < 24; h += 3) {
    EXPECT_NEAR(kPattern.load_at(h * kHour),
                kPattern.load_at(h * kHour + 5 * kDay), 1e-9);
  }
}

TEST(Diurnal, LoadBoundedByConfig) {
  for (sim::SimTime t = 0; t < kDay; t += 13 * kMinute) {
    const double l = kPattern.load_at(t);
    EXPECT_GE(l, 0.25 - 1e-12);
    EXPECT_LE(l, 1.0 + 1e-12);
  }
}

TEST(Diurnal, IntegralOverFullDayIsMeanTimesDay) {
  // Over a full period the cosine integrates away: mean = (off+peak)/2.
  const double expected = (0.25 + 1.0) / 2.0 * 86400.0;
  EXPECT_NEAR(kPattern.load_integral(0, kDay), expected, 1.0);
}

TEST(Diurnal, IntegralMatchesNumericQuadrature) {
  const sim::SimTime from = 5 * kHour + 17 * kMinute;
  const sim::SimTime to = 22 * kHour + 3 * kMinute;
  double numeric = 0.0;
  const sim::SimTime step = sim::kSecond;
  for (sim::SimTime t = from; t < to; t += step) {
    numeric += kPattern.load_at(t) * sim::to_seconds(step);
  }
  EXPECT_NEAR(kPattern.load_integral(from, to), numeric, numeric * 1e-4);
}

TEST(Diurnal, UsersAndDirtyRateScaleWithLoad) {
  EXPECT_EQ(kPattern.users_at(20 * kHour, 400), 400);
  EXPECT_EQ(kPattern.users_at(8 * kHour, 400), 100);
  EXPECT_NEAR(kPattern.dirty_rate_at(8 * kHour, 40.0), 10.0, 1e-9);
}

TEST(Diurnal, RejectsBadPattern) {
  const DiurnalPattern bad{0.8, 0.2, 12.0};
  EXPECT_THROW((void)bad.load_at(0), std::invalid_argument);
  EXPECT_THROW((void)kPattern.load_integral(kHour, 0), std::invalid_argument);
}

TEST(Diurnal, PeakOutageWeighsMoreThanTroughOutage) {
  AvailabilityTracker peak_tracker;
  peak_tracker.start(0);
  peak_tracker.mark_down(20 * kHour);
  peak_tracker.mark_up(20 * kHour + 10 * kMinute);
  peak_tracker.finalize(kDay);

  AvailabilityTracker trough_tracker;
  trough_tracker.start(0);
  trough_tracker.mark_down(8 * kHour);
  trough_tracker.mark_up(8 * kHour + 10 * kMinute);
  trough_tracker.finalize(kDay);

  const double peak_u = load_weighted_unavailability(peak_tracker, kPattern, kDay);
  const double trough_u =
      load_weighted_unavailability(trough_tracker, kPattern, kDay);
  // Same raw downtime, but the peak outage hits 4x the traffic.
  EXPECT_NEAR(peak_u / trough_u, 4.0, 0.1);
  EXPECT_DOUBLE_EQ(peak_tracker.unavailability(), trough_tracker.unavailability());
}

TEST(Diurnal, WeightedEqualsUnweightedForFlatLoad) {
  const DiurnalPattern flat{0.7, 0.7, 12.0};
  AvailabilityTracker tracker;
  tracker.start(0);
  tracker.mark_down(3 * kHour);
  tracker.mark_up(4 * kHour);
  tracker.finalize(kDay);
  EXPECT_NEAR(load_weighted_unavailability(tracker, flat, kDay),
              tracker.unavailability(), 1e-9);
}

TEST(Diurnal, NoOutagesZeroWeighted) {
  AvailabilityTracker tracker;
  tracker.start(0);
  tracker.finalize(kDay);
  EXPECT_DOUBLE_EQ(load_weighted_unavailability(tracker, kPattern, kDay), 0.0);
}

}  // namespace
}  // namespace spothost::workload

#include "trace/price_trace.hpp"

#include <gtest/gtest.h>

namespace spothost::trace {
namespace {

using sim::kHour;
using sim::kMinute;

PriceTrace make_simple() {
  // 0.10 on [0, 10min), 0.30 on [10min, 30min), 0.05 on [30min, 1h)
  PriceTrace t;
  t.append(0, 0.10);
  t.append(10 * kMinute, 0.30);
  t.append(30 * kMinute, 0.05);
  t.set_end(kHour);
  return t;
}

TEST(PriceTrace, PriceAtLooksUpGoverningSegment) {
  const auto t = make_simple();
  EXPECT_DOUBLE_EQ(t.price_at(0), 0.10);
  EXPECT_DOUBLE_EQ(t.price_at(10 * kMinute - 1), 0.10);
  EXPECT_DOUBLE_EQ(t.price_at(10 * kMinute), 0.30);
  EXPECT_DOUBLE_EQ(t.price_at(kHour - 1), 0.05);
}

TEST(PriceTrace, QueryOutsideWindowThrows) {
  const auto t = make_simple();
  EXPECT_THROW((void)t.price_at(-1), std::out_of_range);
  EXPECT_THROW((void)t.price_at(kHour), std::out_of_range);
}

TEST(PriceTrace, AppendRejectsNonIncreasingTime) {
  PriceTrace t;
  t.append(100, 0.1);
  EXPECT_THROW(t.append(100, 0.2), std::invalid_argument);
  EXPECT_THROW(t.append(50, 0.2), std::invalid_argument);
}

TEST(PriceTrace, AppendRejectsBadPrice) {
  PriceTrace t;
  EXPECT_THROW(t.append(0, 0.0), std::invalid_argument);
  EXPECT_THROW(t.append(0, -0.1), std::invalid_argument);
}

TEST(PriceTrace, EqualConsecutivePricesCoalesce) {
  PriceTrace t;
  t.append(0, 0.1);
  t.append(100, 0.1);  // coalesced
  t.append(200, 0.2);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_GE(t.end(), 200);
}

TEST(PriceTrace, SetEndBeforeLastPointThrows) {
  auto t = make_simple();
  EXPECT_THROW(t.set_end(20 * kMinute), std::invalid_argument);
}

TEST(PriceTrace, NextChangeAfterFindsFollowingEvent) {
  const auto t = make_simple();
  const auto next = t.next_change_after(0);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->time, 10 * kMinute);
  EXPECT_DOUBLE_EQ(next->price, 0.30);
  EXPECT_FALSE(t.next_change_after(30 * kMinute).has_value());
}

TEST(PriceTrace, NextChangeAtExactEventTimeIsStrictlyAfter) {
  const auto t = make_simple();
  const auto next = t.next_change_after(10 * kMinute);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->time, 30 * kMinute);
}

TEST(PriceTrace, TimeAverageIsExactIntegral) {
  const auto t = make_simple();
  // (0.10*10 + 0.30*20 + 0.05*30) / 60 = (1 + 6 + 1.5)/60
  EXPECT_NEAR(t.time_average(0, kHour), 8.5 / 60.0, 1e-12);
}

TEST(PriceTrace, TimeAverageSubInterval) {
  const auto t = make_simple();
  // [5min, 15min): 5min at 0.10 + 5min at 0.30
  EXPECT_NEAR(t.time_average(5 * kMinute, 15 * kMinute), 0.20, 1e-12);
}

TEST(PriceTrace, FractionBelowThreshold) {
  const auto t = make_simple();
  // below 0.2: [0,10) and [30,60) => 40 of 60 minutes
  EXPECT_NEAR(t.fraction_below(0.2, 0, kHour), 40.0 / 60.0, 1e-12);
  EXPECT_NEAR(t.fraction_below(0.01, 0, kHour), 0.0, 1e-12);
  EXPECT_NEAR(t.fraction_below(1.0, 0, kHour), 1.0, 1e-12);
}

TEST(PriceTrace, MinMaxOverWindow) {
  const auto t = make_simple();
  EXPECT_DOUBLE_EQ(t.min_price(0, kHour), 0.05);
  EXPECT_DOUBLE_EQ(t.max_price(0, kHour), 0.30);
  EXPECT_DOUBLE_EQ(t.max_price(0, 5 * kMinute), 0.10);
}

TEST(PriceTrace, SampleProducesUniformGrid) {
  const auto t = make_simple();
  const auto xs = t.sample(0, kHour, 10 * kMinute);
  ASSERT_EQ(xs.size(), 6u);
  EXPECT_DOUBLE_EQ(xs[0], 0.10);
  EXPECT_DOUBLE_EQ(xs[1], 0.30);
  EXPECT_DOUBLE_EQ(xs[3], 0.05);
}

TEST(PriceTrace, ConstructFromPointsValidates) {
  std::vector<PricePoint> pts{{0, 0.1}, {100, 0.2}};
  const PriceTrace t(pts, 200);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.start(), 0);
  EXPECT_EQ(t.end(), 200);
}

TEST(PriceTrace, EmptyTraceStartThrows) {
  const PriceTrace t;
  EXPECT_TRUE(t.empty());
  EXPECT_THROW((void)t.start(), std::logic_error);
}

TEST(PriceTrace, EmptyIntervalQueriesThrow) {
  const auto t = make_simple();
  EXPECT_THROW((void)t.time_average(10, 10), std::invalid_argument);
  EXPECT_THROW((void)t.fraction_below(0.1, 20, 10), std::invalid_argument);
  EXPECT_THROW(t.sample(0, kHour, 0), std::invalid_argument);
}

// Regression: these five used to silently extrapolate the last price past
// end() (sample alone threw, and only mid-grid). Out-of-window intervals
// must throw out_of_range consistently and up front.
TEST(PriceTrace, IntervalQueriesPastEndThrowOutOfRange) {
  const auto t = make_simple();
  EXPECT_THROW((void)t.time_average(0, kHour + 1), std::out_of_range);
  EXPECT_THROW((void)t.fraction_below(0.2, 0, kHour + 1), std::out_of_range);
  EXPECT_THROW((void)t.min_price(30 * kMinute, 2 * kHour), std::out_of_range);
  EXPECT_THROW((void)t.max_price(30 * kMinute, 2 * kHour), std::out_of_range);
  EXPECT_THROW(t.sample(0, kHour + 1, 10 * kMinute), std::out_of_range);
}

TEST(PriceTrace, IntervalQueriesUpToEndAreAllowed) {
  const auto t = make_simple();
  EXPECT_NEAR(t.time_average(0, kHour), 8.5 / 60.0, 1e-12);
  EXPECT_DOUBLE_EQ(t.min_price(0, kHour), 0.05);
  EXPECT_DOUBLE_EQ(t.max_price(0, kHour), 0.30);
  EXPECT_NEAR(t.fraction_below(1.0, 0, kHour), 1.0, 1e-12);
  EXPECT_EQ(t.sample(0, kHour, 10 * kMinute).size(), 6u);
}

TEST(PriceTrace, PointQueriesAtAndPastEndThrow) {
  const auto t = make_simple();
  EXPECT_THROW((void)t.price_at(kHour), std::out_of_range);
  EXPECT_THROW((void)t.price_at(kHour + 1), std::out_of_range);
  EXPECT_FALSE(t.next_change_after(kHour).has_value());
  PriceCursor cursor;
  EXPECT_THROW((void)t.price_at(kHour, cursor), std::out_of_range);
}

TEST(PriceTrace, EmptyTraceQueries) {
  const PriceTrace t;
  EXPECT_THROW((void)t.price_at(0), std::out_of_range);
  EXPECT_FALSE(t.next_change_after(0).has_value());
  EXPECT_THROW((void)t.time_average(0, 10), std::out_of_range);  // past end() == 0
  EXPECT_THROW(t.sample(0, 10, 5), std::out_of_range);
}

// A trace of many distinct segments, for exercising the cursor's linear
// scan, gallop, and rewind paths. Prices cycle so no two consecutive points
// coalesce.
PriceTrace make_long() {
  PriceTrace t;
  for (int i = 0; i < 120; ++i) {
    t.append(i * kMinute, 0.10 + 0.01 * (i % 5));
  }
  t.set_end(2 * kHour);
  return t;
}

TEST(PriceCursorTest, MonotoneScanMatchesCursorlessLookups) {
  const auto t = make_long();
  PriceCursor cursor;
  for (sim::SimTime q = t.start(); q < t.end(); q += 30 * sim::kSecond) {
    EXPECT_DOUBLE_EQ(t.price_at(q, cursor), t.price_at(q)) << "at " << q;
  }
}

TEST(PriceCursorTest, RewindAfterBackwardJump) {
  const auto t = make_long();
  PriceCursor cursor;
  EXPECT_DOUBLE_EQ(t.price_at(100 * kMinute, cursor), t.price_at(100 * kMinute));
  // Backward jump: the cursor is far ahead; the rewind binary search must
  // still find the governing segment.
  EXPECT_DOUBLE_EQ(t.price_at(3 * kMinute, cursor), t.price_at(3 * kMinute));
  // And forward again from the rewound position.
  EXPECT_DOUBLE_EQ(t.price_at(90 * kMinute, cursor), t.price_at(90 * kMinute));
}

TEST(PriceCursorTest, FarForwardJumpGallopsPastLinearScan) {
  const auto t = make_long();
  PriceCursor cursor;
  EXPECT_DOUBLE_EQ(t.price_at(0, cursor), t.price_at(0));
  // > kLinearScanLimit segments ahead: exercises the binary-search tail.
  EXPECT_DOUBLE_EQ(t.price_at(119 * kMinute, cursor), t.price_at(119 * kMinute));
}

TEST(PriceCursorTest, StaleCursorFromLongerTraceDegradesGracefully) {
  const auto long_trace = make_long();
  PriceCursor cursor;
  (void)long_trace.price_at(119 * kMinute, cursor);  // park the cursor deep
  const auto short_trace = make_simple();            // only 3 points
  // Out-of-bounds remembered index must be ignored, not dereferenced.
  EXPECT_DOUBLE_EQ(short_trace.price_at(15 * kMinute, cursor), 0.30);
  cursor.reset();
  EXPECT_DOUBLE_EQ(long_trace.price_at(0, cursor), 0.10);
}

TEST(PriceCursorTest, IntervalStatsWithSharedCursorMatchStateless) {
  const auto t = make_long();
  PriceCursor cursor;
  // Consecutive windows, the daily-table access pattern.
  for (int w = 0; w < 8; ++w) {
    const sim::SimTime from = w * 15 * kMinute;
    const sim::SimTime to = (w + 1) * 15 * kMinute;
    EXPECT_DOUBLE_EQ(t.time_average(from, to, cursor), t.time_average(from, to));
    EXPECT_DOUBLE_EQ(t.fraction_below(0.12, from, to, cursor),
                     t.fraction_below(0.12, from, to));
    EXPECT_DOUBLE_EQ(t.min_price(from, to, cursor), t.min_price(from, to));
    EXPECT_DOUBLE_EQ(t.max_price(from, to, cursor), t.max_price(from, to));
    EXPECT_EQ(t.sample(from, to, kMinute, cursor), t.sample(from, to, kMinute));
  }
}

TEST(PriceCursorTest, NextChangeAfterWithCursorMatchesCursorless) {
  const auto t = make_long();
  PriceCursor cursor;
  sim::SimTime q = t.start();
  while (true) {
    const auto with = t.next_change_after(q, cursor);
    const auto without = t.next_change_after(q);
    ASSERT_EQ(with.has_value(), without.has_value());
    if (!with) break;
    EXPECT_EQ(with->time, without->time);
    EXPECT_DOUBLE_EQ(with->price, without->price);
    q = with->time;
  }
}

TEST(PriceTrace, CoalescedPointBoundaries) {
  PriceTrace t;
  t.append(0, 0.10);
  t.append(10 * kMinute, 0.10);  // coalesced away, but extends end()
  t.append(20 * kMinute, 0.20);
  t.set_end(30 * kMinute);
  ASSERT_EQ(t.size(), 2u);

  PriceCursor cursor;
  // The coalesced instant is mid-segment: same price on both sides, and
  // next_change_after must skip straight to the real change.
  EXPECT_DOUBLE_EQ(t.price_at(10 * kMinute - 1, cursor), 0.10);
  EXPECT_DOUBLE_EQ(t.price_at(10 * kMinute, cursor), 0.10);
  const auto next = t.next_change_after(10 * kMinute, cursor);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->time, 20 * kMinute);
  EXPECT_NEAR(t.time_average(0, 30 * kMinute, cursor),
              (0.10 * 20 + 0.20 * 10) / 30.0, 1e-12);
}

}  // namespace
}  // namespace spothost::trace

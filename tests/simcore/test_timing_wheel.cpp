// TimingWheelQueue edge cases: cascade boundaries, the overflow bucket,
// cancellation in every location an event can live, clear(), the
// monotone-schedule precondition, and the in-place drain and
// cascade-to-earliest paths. The backend-generic contract is covered by
// test_event_queue.cpp; the differential fuzz lives in
// test_queue_differential.cpp.
#include "simcore/timing_wheel.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace spothost::sim {
namespace {

std::vector<SimTime> drain_times(TimingWheelQueue& q) {
  std::vector<SimTime> times;
  while (!q.empty()) times.push_back(q.pop().time);
  return times;
}

TEST(TimingWheel, EventsAroundLevelOneBoundary) {
  // 63 is the last level-0 slot of the initial window; 64 and 65 start in
  // level 1 and must cascade down before firing.
  TimingWheelQueue q;
  q.schedule(65, [] {});
  q.schedule(63, [] {});
  q.schedule(64, [] {});
  EXPECT_EQ(drain_times(q), (std::vector<SimTime>{63, 64, 65}));
}

TEST(TimingWheel, EventsAroundLevelTwoBoundary) {
  TimingWheelQueue q;
  for (const SimTime t : {4097, 4095, 4096, 4094}) q.schedule(t, [] {});
  EXPECT_EQ(drain_times(q), (std::vector<SimTime>{4094, 4095, 4096, 4097}));
}

TEST(TimingWheel, EventsAcrossEveryLevel) {
  // One event per level of the wheel plus one in overflow; global order must
  // still come out sorted.
  TimingWheelQueue q;
  std::vector<SimTime> times;
  for (int level = 0; level < TimingWheelQueue::kLevels; ++level) {
    times.push_back((SimTime{1} << (TimingWheelQueue::kLevelBits * level)) + 3);
  }
  times.push_back(TimingWheelQueue::kSpanMs + 17);  // overflow
  for (auto it = times.rbegin(); it != times.rend(); ++it) {
    q.schedule(*it, [] {});
  }
  EXPECT_EQ(q.overflow_entries(), 1u);
  EXPECT_EQ(drain_times(q), times);
}

TEST(TimingWheel, FifoPreservedAcrossCascade) {
  // Two events at the same far timestamp, scheduled before and after a pop
  // that forces the first one through a cascade path: schedule order must
  // still decide the tie.
  TimingWheelQueue q;
  std::vector<int> fired;
  q.schedule(5000, [&] { fired.push_back(1); });
  q.schedule(10, [] {});
  (void)q.pop();  // advances the wheel; 5000 has not cascaded yet
  q.schedule(5000, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
}

TEST(TimingWheel, OverflowBucketHoldsFarFutureEvents) {
  TimingWheelQueue q;
  q.schedule(TimingWheelQueue::kSpanMs + 1, [] {});
  q.schedule(2 * TimingWheelQueue::kSpanMs + 5, [] {});
  q.schedule(100, [] {});
  EXPECT_EQ(q.overflow_entries(), 2u);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.pop().time, 100);
  // Popping into the far future migrates overflow entries into the wheel.
  EXPECT_EQ(q.pop().time, TimingWheelQueue::kSpanMs + 1);
  EXPECT_EQ(q.overflow_entries(), 1u);
  EXPECT_EQ(q.pop().time, 2 * TimingWheelQueue::kSpanMs + 5);
  EXPECT_TRUE(q.empty());
}

TEST(TimingWheel, OverflowPreservesFifoAtEqualTimes) {
  TimingWheelQueue q;
  std::vector<int> fired;
  const SimTime far = TimingWheelQueue::kSpanMs + 42;
  for (int i = 0; i < 5; ++i) {
    q.schedule(far, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(TimingWheel, CancelInWheelBucket) {
  TimingWheelQueue q;
  const EventId a = q.schedule(100, [] {});
  const EventId b = q.schedule(100, [] {});
  const EventId c = q.schedule(100, [] {});
  EXPECT_TRUE(q.cancel(b));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop().id, a);
  EXPECT_EQ(q.pop().id, c);
}

TEST(TimingWheel, CancelWhileBufferedInDrain) {
  // Pop the first event of a same-millisecond batch (the rest of the batch
  // is buffered in the drain), then cancel a buffered entry: it must be
  // skipped, not fired.
  TimingWheelQueue q;
  std::vector<int> fired;
  q.schedule(50, [&] { fired.push_back(1); });
  const EventId doomed = q.schedule(50, [&] { fired.push_back(2); });
  q.schedule(50, [&] { fired.push_back(3); });
  q.pop().callback();
  EXPECT_TRUE(q.cancel(doomed));
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(TimingWheel, CancelInOverflowBucket) {
  TimingWheelQueue q;
  const EventId far = q.schedule(TimingWheelQueue::kSpanMs + 9, [] {});
  q.schedule(10, [] {});
  EXPECT_EQ(q.overflow_entries(), 1u);
  EXPECT_TRUE(q.cancel(far));
  EXPECT_EQ(q.overflow_entries(), 0u);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_FALSE(q.cancel(far));
}

TEST(TimingWheel, SchedulingBeforeWheelTimeThrows) {
  TimingWheelQueue q;
  q.schedule(100, [] {});
  (void)q.pop();
  EXPECT_EQ(q.wheel_time(), 100);
  EXPECT_THROW(q.schedule(99, [] {}), std::invalid_argument);
  // Exactly the frontier is allowed (events scheduling at "now").
  q.schedule(100, [] {});
  EXPECT_EQ(q.pop().time, 100);
}

TEST(TimingWheel, PeekDoesNotBlockIntermediateSchedules) {
  // next_time() peeks far ahead; scheduling between the frontier and the
  // peeked time must still work, and fire first.
  TimingWheelQueue q;
  q.schedule(10, [] {});
  q.schedule(1000000, [] {});
  EXPECT_EQ(q.pop().time, 10);
  EXPECT_EQ(q.next_time(), 1000000);
  q.schedule(500, [] {});
  EXPECT_EQ(q.next_time(), 500);
  EXPECT_EQ(q.pop().time, 500);
  EXPECT_EQ(q.pop().time, 1000000);
}

TEST(TimingWheel, ClearResetsEverythingIncludingWheelTime) {
  TimingWheelQueue q;
  q.schedule(100, [] {});
  q.schedule(TimingWheelQueue::kSpanMs + 3, [] {});
  (void)q.pop();
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.overflow_entries(), 0u);
  EXPECT_EQ(q.wheel_time(), 0);
  // Time restarts from zero: scheduling at 0 is legal again.
  bool fired = false;
  q.schedule(0, [&] { fired = true; });
  q.pop().callback();
  EXPECT_TRUE(fired);
}

TEST(TimingWheel, ScheduleAtOwnMillisecondMidDrainFiresAfterTheBatch) {
  // The batch is drained where it lies, so a same-millisecond schedule made
  // by one of its callbacks appends to the bucket being drained. It must
  // fire after every earlier-scheduled sibling, not before and not lost.
  // 5000 sits in level 2, so the batch is built by a cascade.
  TimingWheelQueue q;
  std::vector<int> fired;
  q.schedule(5000, [&] {
    fired.push_back(1);
    q.schedule(5000, [&] { fired.push_back(4); });
  });
  q.schedule(5000, [&] { fired.push_back(2); });
  q.schedule(5000, [&] { fired.push_back(3); });
  q.schedule(5001, [&] { fired.push_back(5); });
  std::vector<SimTime> times;
  while (!q.empty()) {
    auto event = q.pop();
    times.push_back(event.time);
    event.callback();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(times, (std::vector<SimTime>{5000, 5000, 5000, 5000, 5001}));
}

TEST(TimingWheel, CancellingALaterSiblingMidDrainSkipsIt) {
  // A callback cancels a same-millisecond sibling that the batch has not
  // reached yet: the sibling's record stays in the bucket, and the drain
  // must skip it.
  TimingWheelQueue q;
  std::vector<int> fired;
  EventId doomed = kInvalidEventId;
  q.schedule(5000, [&] {
    fired.push_back(1);
    EXPECT_TRUE(q.cancel(doomed));
  });
  q.schedule(5000, [&] { fired.push_back(2); });
  doomed = q.schedule(5000, [&] { fired.push_back(3); });
  q.schedule(5000, [&] { fired.push_back(4); });
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 4}));
  EXPECT_FALSE(q.cancel(doomed));
}

TEST(TimingWheel, CascadedBucketWithCancelledEarliestPopsLiveRecordsInOrder) {
  // All five records share one level-2 bucket. Its earliest (5000) is
  // cancelled, so the cascade moves the clock to a dead record's time; the
  // live ones must still pop in (time, FIFO) order, and a schedule between
  // the dead time and the next live one, issued after a peek, must still
  // fire first.
  TimingWheelQueue q;
  const EventId dead = q.schedule(5000, [] {});
  const EventId late = q.schedule(6000, [] {});
  const EventId mid = q.schedule(5100, [] {});
  const EventId first = q.schedule(5003, [] {});
  const EventId tied = q.schedule(5100, [] {});
  q.schedule(10, [] {});
  EXPECT_EQ(q.pop().time, 10);
  EXPECT_TRUE(q.cancel(dead));
  EXPECT_EQ(q.next_time(), 5003);
  const EventId between = q.schedule(5001, [] {});
  EXPECT_EQ(q.pre_entries(), 1u);
  std::vector<EventId> order;
  std::vector<SimTime> times;
  while (!q.empty()) {
    const auto event = q.pop();
    order.push_back(event.id);
    times.push_back(event.time);
  }
  EXPECT_EQ(order, (std::vector<EventId>{between, first, mid, tied, late}));
  EXPECT_EQ(times, (std::vector<SimTime>{5001, 5003, 5100, 5100, 6000}));
}

TEST(TimingWheel, LoneLevelThreeEventPopsAtItsExactTimeBetweenNearEvents) {
  // 300,007 ms (5 min) is a level-3 time, the shape of a price step: filed
  // alone, it cascades once, straight to its own millisecond — the peek
  // reports its exact time, not its bucket's start. Near events scheduled
  // around it afterwards (one behind the advanced frontier, one at it, one
  // after) interleave in exact (time, FIFO) order.
  constexpr SimTime kStep = 300'007;
  static_assert(kStep >> (3 * TimingWheelQueue::kLevelBits) != 0);
  static_assert(kStep >> (4 * TimingWheelQueue::kLevelBits) == 0);
  TimingWheelQueue q;
  const EventId step = q.schedule(kStep, [] {});
  q.schedule(100, [] {});
  q.schedule(200, [] {});
  EXPECT_EQ(q.pop().time, 100);
  EXPECT_EQ(q.pop().time, 200);
  EXPECT_EQ(q.next_time(), kStep);
  const EventId before = q.schedule(kStep - 1, [] {});
  const EventId tied = q.schedule(kStep, [] {});
  const EventId after = q.schedule(kStep + 1, [] {});
  std::vector<EventId> order;
  std::vector<SimTime> times;
  while (!q.empty()) {
    const auto event = q.pop();
    order.push_back(event.id);
    times.push_back(event.time);
  }
  EXPECT_EQ(order, (std::vector<EventId>{before, step, tied, after}));
  EXPECT_EQ(times, (std::vector<SimTime>{kStep - 1, kStep, kStep, kStep + 1}));
}

TEST(TimingWheel, DenseMillisecondsSweepCleanly) {
  // A contiguous run of per-millisecond events across several level-0
  // windows — the hour-tick-heavy fleet pattern in miniature.
  TimingWheelQueue q;
  const SimTime n = 1000;
  for (SimTime t = 0; t < n; ++t) q.schedule(t, [] {});
  for (SimTime t = 0; t < n; ++t) {
    ASSERT_EQ(q.pop().time, t);
  }
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace spothost::sim

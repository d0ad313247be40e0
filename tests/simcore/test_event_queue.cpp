// EventQueue contract tests, run through the interface against both
// implementations — the timing wheel and the binary heap
// (simcore/binary_heap_queue.hpp), the two queues a Simulation runs on —
// plus heap-only compaction tests (compaction is a lazy-cancel
// implementation detail the timing wheel does not have).
#include "simcore/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "simcore/binary_heap_queue.hpp"
#include "simcore/timing_wheel.hpp"

namespace spothost::sim {
namespace {

enum class Backend : std::uint8_t { kWheel, kHeap };

std::unique_ptr<EventQueue> make_queue(Backend backend) {
  if (backend == Backend::kHeap) return std::make_unique<BinaryHeapQueue>();
  return std::make_unique<TimingWheelQueue>();
}

class EventQueueContract : public ::testing::TestWithParam<Backend> {
 protected:
  EventQueueContract() : q_(*(owned_ = make_queue(GetParam()))) {}

  std::unique_ptr<EventQueue> owned_;
  EventQueue& q_;
};

INSTANTIATE_TEST_SUITE_P(AllBackends, EventQueueContract,
                         ::testing::Values(Backend::kHeap, Backend::kWheel),
                         [](const auto& param_info) {
                           return param_info.param == Backend::kWheel ? "Wheel"
                                                                      : "Heap";
                         });

TEST_P(EventQueueContract, StartsEmpty) {
  EXPECT_TRUE(q_.empty());
  EXPECT_EQ(q_.size(), 0u);
}

TEST_P(EventQueueContract, PopsInTimeOrder) {
  std::vector<int> fired;
  q_.schedule(300, [&] { fired.push_back(3); });
  q_.schedule(100, [&] { fired.push_back(1); });
  q_.schedule(200, [&] { fired.push_back(2); });
  while (!q_.empty()) q_.pop().callback();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST_P(EventQueueContract, EqualTimestampsFireFifo) {
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q_.schedule(500, [&fired, i] { fired.push_back(i); });
  }
  while (!q_.empty()) q_.pop().callback();
  ASSERT_EQ(fired.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST_P(EventQueueContract, CancelPreventsFiring) {
  bool fired = false;
  const EventId id = q_.schedule(100, [&] { fired = true; });
  EXPECT_TRUE(q_.cancel(id));
  EXPECT_TRUE(q_.empty());
  EXPECT_FALSE(fired);
}

TEST_P(EventQueueContract, CancelTwiceReturnsFalse) {
  const EventId id = q_.schedule(100, [] {});
  EXPECT_TRUE(q_.cancel(id));
  EXPECT_FALSE(q_.cancel(id));
}

TEST_P(EventQueueContract, CancelUnknownIdReturnsFalse) {
  EXPECT_FALSE(q_.cancel(12345));
}

TEST_P(EventQueueContract, CancelledEventSkippedOnPop) {
  std::vector<int> fired;
  q_.schedule(100, [&] { fired.push_back(1); });
  const EventId mid = q_.schedule(200, [&] { fired.push_back(2); });
  q_.schedule(300, [&] { fired.push_back(3); });
  q_.cancel(mid);
  EXPECT_EQ(q_.size(), 2u);
  while (!q_.empty()) q_.pop().callback();
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST_P(EventQueueContract, NextTimeSkipsCancelledHead) {
  const EventId head = q_.schedule(100, [] {});
  q_.schedule(200, [] {});
  q_.cancel(head);
  EXPECT_EQ(q_.next_time(), 200);
}

TEST_P(EventQueueContract, PopReturnsTimeAndId) {
  const EventId id = q_.schedule(42, [] {});
  const auto fired = q_.pop();
  EXPECT_EQ(fired.time, 42);
  EXPECT_EQ(fired.id, id);
}

TEST_P(EventQueueContract, PopMovesCallbackOutOfStorage) {
  // The fired callback must survive clear(): pop() transfers ownership out
  // of queue storage rather than aliasing it.
  auto token = std::make_shared<int>(7);
  q_.schedule(10, [token] { *token += 1; });
  auto fired = q_.pop();
  q_.clear();
  EXPECT_EQ(token.use_count(), 2);  // local + the moved-out callback
  fired.callback();
  EXPECT_EQ(*token, 8);
}

TEST_P(EventQueueContract, ClearDropsEverything) {
  q_.schedule(1, [] {});
  q_.schedule(2, [] {});
  q_.clear();
  EXPECT_TRUE(q_.empty());
}

TEST_P(EventQueueContract, CancelAfterClearReturnsFalse) {
  const EventId id = q_.schedule(1, [] {});
  q_.clear();
  EXPECT_FALSE(q_.cancel(id));
}

TEST_P(EventQueueContract, IdsAreUniqueAndNonZero) {
  const EventId a = q_.schedule(1, [] {});
  const EventId b = q_.schedule(1, [] {});
  EXPECT_NE(a, kInvalidEventId);
  EXPECT_NE(b, kInvalidEventId);
  EXPECT_NE(a, b);
}

TEST_P(EventQueueContract, ManyEventsStressOrdering) {
  // Deterministic pseudo-random times; verify global ordering on pop.
  std::uint64_t state = 99;
  for (int i = 0; i < 5000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    q_.schedule(static_cast<SimTime>(state % 100000), [] {});
  }
  SimTime last = -1;
  while (!q_.empty()) {
    const auto fired = q_.pop();
    EXPECT_GE(fired.time, last);
    last = fired.time;
  }
}

TEST_P(EventQueueContract, InterleavedPopAndSchedule) {
  // Pop some events, then keep scheduling at/after the current frontier —
  // the pattern every live simulation produces.
  std::vector<SimTime> fired;
  for (int i = 0; i < 8; ++i) {
    q_.schedule(static_cast<SimTime>(i * 10), [] {});
  }
  for (int i = 0; i < 4; ++i) fired.push_back(q_.pop().time);
  q_.schedule(35, [] {});  // between the frontier (30) and the next (40)
  q_.schedule(30, [] {});  // exactly at the frontier
  while (!q_.empty()) fired.push_back(q_.pop().time);
  EXPECT_EQ(fired,
            (std::vector<SimTime>{0, 10, 20, 30, 30, 35, 40, 50, 60, 70}));
}

TEST_P(EventQueueContract, PopDueRespectsHorizon) {
  q_.schedule(10, [] {});
  q_.schedule(20, [] {});
  q_.schedule(20, [] {});
  q_.schedule(30, [] {});

  EventQueue::Fired fired;
  // Nothing due before the first event.
  EXPECT_FALSE(q_.pop_due(9, fired));
  EXPECT_EQ(q_.size(), 4u);
  // Everything at or before the horizon pops, in (time, FIFO) order.
  std::vector<SimTime> times;
  while (q_.pop_due(20, fired)) times.push_back(fired.time);
  EXPECT_EQ(times, (std::vector<SimTime>{10, 20, 20}));
  // The event past the horizon is untouched...
  EXPECT_EQ(q_.size(), 1u);
  EXPECT_FALSE(q_.pop_due(29, fired));
  // ...and pops once the horizon reaches it.
  ASSERT_TRUE(q_.pop_due(30, fired));
  EXPECT_EQ(fired.time, 30);
  EXPECT_TRUE(q_.empty());
}

TEST_P(EventQueueContract, PopDueOnEmptyQueueReturnsFalse) {
  EventQueue::Fired fired;
  EXPECT_FALSE(
      q_.pop_due(std::numeric_limits<SimTime>::max(), fired));
}

TEST_P(EventQueueContract, PopDueSkipsCancelledEvents) {
  const EventId early = q_.schedule(5, [] {});
  q_.schedule(15, [] {});
  ASSERT_TRUE(q_.cancel(early));

  EventQueue::Fired fired;
  EXPECT_FALSE(q_.pop_due(10, fired));  // only the cancelled event was due
  ASSERT_TRUE(q_.pop_due(15, fired));
  EXPECT_EQ(fired.time, 15);
}

// ---------------------------------------------------------------------------
// BinaryHeapQueue-specific: lazy-cancel compaction behaviour.

TEST(BinaryHeapQueue, CompactionBoundsHeapWhenCancellationsDominate) {
  BinaryHeapQueue q;
  std::vector<EventId> ids;
  ids.reserve(10000);
  for (int i = 0; i < 10000; ++i) {
    ids.push_back(q.schedule(static_cast<SimTime>(i), [] {}));
  }
  // Cancel all but the last 100: without compaction the heap would keep all
  // 10000 entries until they surfaced at the top.
  for (std::size_t i = 0; i + 100 < ids.size(); ++i) q.cancel(ids[i]);
  EXPECT_EQ(q.size(), 100u);
  EXPECT_LE(q.heap_entries(), 2 * q.size());
}

TEST(BinaryHeapQueue, TinyQueuesNeverPayForCompaction) {
  // Below the compaction floor, cancelled entries may linger: cancelling 9
  // of 10 events must not shrink the heap (no O(n) rebuild for small n).
  BinaryHeapQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(q.schedule(static_cast<SimTime>(i), [] {}));
  }
  for (int i = 0; i < 9; ++i) q.cancel(ids[static_cast<std::size_t>(i)]);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.heap_entries(), 10u);
}

TEST(BinaryHeapQueue, PopOrderSurvivesCompaction) {
  // Interleave keepers and victims at equal timestamps so FIFO tie-breaking
  // is observable, cancel enough to trigger a rebuild, then verify pops
  // arrive in exactly the original schedule order.
  BinaryHeapQueue q;
  std::vector<EventId> victims;
  std::vector<EventId> keepers;
  for (int i = 0; i < 200; ++i) {
    const SimTime at = static_cast<SimTime>(i / 4);  // four events per tick
    const EventId id = q.schedule(at, [] {});
    if (i % 8 == 0) {
      keepers.push_back(id);
    } else {
      victims.push_back(id);
    }
  }
  for (const EventId id : victims) q.cancel(id);
  EXPECT_EQ(q.size(), keepers.size());
  EXPECT_LE(q.heap_entries(), 2 * keepers.size());

  SimTime last_time = -1;
  std::size_t next_keeper = 0;
  while (!q.empty()) {
    const auto fired = q.pop();
    EXPECT_GE(fired.time, last_time);
    last_time = fired.time;
    ASSERT_LT(next_keeper, keepers.size());
    EXPECT_EQ(fired.id, keepers[next_keeper]);  // FIFO among equal times
    ++next_keeper;
  }
  EXPECT_EQ(next_keeper, keepers.size());
}

TEST(BinaryHeapQueue, SchedulingStaysLiveAfterCompaction) {
  BinaryHeapQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(q.schedule(static_cast<SimTime>(i), [] {}));
  }
  for (std::size_t i = 0; i < 900; ++i) q.cancel(ids[i]);
  EXPECT_LE(q.heap_entries(), 2 * q.size());
  // The queue keeps working normally after the rebuild.
  bool fired = false;
  q.schedule(0, [&] { fired = true; });
  const auto front = q.pop();
  front.callback();
  EXPECT_TRUE(fired);
  EXPECT_EQ(front.time, 0);
}

}  // namespace
}  // namespace spothost::sim

#include "simcore/simulation.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace spothost::sim {
namespace {

TEST(Simulation, ClockStartsAtZero) {
  Simulation s;
  EXPECT_EQ(s.now(), 0);
}

TEST(Simulation, RunAdvancesClockToEvents) {
  Simulation s;
  std::vector<SimTime> seen;
  s.at(100, [&] { seen.push_back(s.now()); });
  s.at(250, [&] { seen.push_back(s.now()); });
  s.run_until(1000);
  EXPECT_EQ(seen, (std::vector<SimTime>{100, 250}));
  EXPECT_EQ(s.now(), 1000);  // clock parked at the horizon
}

TEST(Simulation, EventsAtHorizonFire) {
  Simulation s;
  bool fired = false;
  s.at(1000, [&] { fired = true; });
  s.run_until(1000);
  EXPECT_TRUE(fired);
}

TEST(Simulation, EventsPastHorizonDoNotFire) {
  Simulation s;
  bool fired = false;
  s.at(1001, [&] { fired = true; });
  s.run_until(1000);
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.pending(), 1u);
}

TEST(Simulation, AfterSchedulesRelativeToNow) {
  Simulation s;
  SimTime fired_at = -1;
  s.at(500, [&] { s.after(30, [&] { fired_at = s.now(); }); });
  s.run_until(10000);
  EXPECT_EQ(fired_at, 530);
}

TEST(Simulation, SchedulingInThePastThrows) {
  Simulation s;
  s.at(100, [] {});
  s.run_until(100);
  EXPECT_THROW(s.at(50, [] {}), std::invalid_argument);
  EXPECT_THROW(s.after(-1, [] {}), std::invalid_argument);
}

TEST(Simulation, CancelStopsPendingEvent) {
  Simulation s;
  bool fired = false;
  EventHandle handle = s.at(100, [&] { fired = true; });
  EXPECT_TRUE(handle.valid());
  EXPECT_TRUE(handle.cancel());
  EXPECT_FALSE(handle.valid());
  EXPECT_FALSE(handle.cancel());  // second cancel is a no-op
  s.run_until(1000);
  EXPECT_FALSE(fired);
}

TEST(Simulation, EventsCanScheduleAtSameTimestamp) {
  Simulation s;
  std::vector<int> order;
  s.at(100, [&] {
    order.push_back(1);
    s.after(0, [&] { order.push_back(2); });
  });
  s.at(100, [&] { order.push_back(3); });
  s.run_until(200);
  // FIFO among equal timestamps: the nested zero-delay event was scheduled
  // after the second top-level event.
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(Simulation, NextTimeReportsEarliestPendingEvent) {
  Simulation s;
  EXPECT_FALSE(s.next_time().has_value());
  s.at(20, [] {});
  EventHandle early = s.at(10, [] {});
  EXPECT_EQ(s.next_time(), SimTime{10});
  early.cancel();
  EXPECT_EQ(s.next_time(), SimTime{20});
  s.run_until(15);  // a peek never pulls an event forward
  EXPECT_EQ(s.dispatched(), 0u);
  s.run_until(20);
  EXPECT_FALSE(s.next_time().has_value());
  EXPECT_EQ(s.dispatched(), 1u);
}

TEST(Simulation, DispatchedCountsEvents) {
  Simulation s;
  for (int i = 1; i <= 7; ++i) s.at(i, [] {});
  s.run_until(100);
  EXPECT_EQ(s.dispatched(), 7u);
}

TEST(Simulation, RunUntilIsResumable) {
  Simulation s;
  std::vector<SimTime> seen;
  for (SimTime t = 100; t <= 500; t += 100) {
    s.at(t, [&, t] { seen.push_back(t); });
  }
  s.run_until(250);
  EXPECT_EQ(seen.size(), 2u);
  s.run_until(1000);
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Simulation, RunForeverStopsAtLastEvent) {
  Simulation s;
  s.at(42, [] {});
  s.run();
  EXPECT_EQ(s.now(), 42);  // not parked at the run-forever sentinel
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulation, SameTickCancelSuppressesLaterEvent) {
  // Events pop one at a time, so a callback may cancel another event due at
  // the same timestamp: cancel succeeds and the victim never fires.
  Simulation s;
  int fired = 0;
  EventHandle victim;
  s.at(10, [&] { EXPECT_TRUE(victim.cancel()); });
  victim = s.at(10, [&fired] { ++fired; });
  s.run_until(kHour);
  EXPECT_EQ(fired, 0);
  // A suppressed event is not a dispatch: only the canceler fired.
  EXPECT_EQ(s.dispatched(), 1u);
}

TEST(Simulation, SameTickCancelOfAlreadyFiredEventFails) {
  Simulation s;
  int fired = 0;
  EventHandle first = s.at(10, [&fired] { ++fired; });
  s.at(10, [&first] { EXPECT_FALSE(first.cancel()); });
  s.run_until(kHour);
  EXPECT_EQ(fired, 1);
}

}  // namespace
}  // namespace spothost::sim

// The sim::Clock seam and EventHandle value semantics, exercised through
// Simulation (its only production implementation). Domain code holds a
// Clock&, never a Simulation& — these tests drive everything through the
// interface to keep it honest.
#include "simcore/clock.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "simcore/simulation.hpp"

namespace spothost::sim {
namespace {

// What domain code looks like: schedules through the interface only.
// `fired_at` must outlive the run: the callback writes it when it fires.
void schedule_one_shot(Clock& clock, SimTime delay, SimTime& fired_at) {
  clock.after(delay, [&clock, &fired_at] { fired_at = clock.now(); });
}

TEST(Clock, DomainCodeSchedulesThroughInterface) {
  Simulation s;
  Clock& clock = s;
  SimTime fired_at = -1;
  clock.after(250, [&] { fired_at = clock.now(); });
  SimTime one_shot = -1;
  schedule_one_shot(clock, 100, one_shot);
  EXPECT_EQ(one_shot, -1);  // nothing fires until the owner runs the simulation
  s.run_until(1000);
  EXPECT_EQ(one_shot, 100);
  EXPECT_EQ(fired_at, 250);
  EXPECT_EQ(clock.now(), 1000);
}

TEST(EventHandle, DefaultIsInvalid) {
  EventHandle h;
  EXPECT_FALSE(h.valid());
  EXPECT_FALSE(static_cast<bool>(h));
  EXPECT_EQ(h.id(), kInvalidEventId);
  EXPECT_FALSE(h.cancel());  // cancelling nothing is a no-op
}

TEST(EventHandle, CancelFiresOnceAndInvalidates) {
  Simulation s;
  bool fired = false;
  EventHandle h = s.at(100, [&] { fired = true; });
  EXPECT_TRUE(h.valid());
  EXPECT_TRUE(h.cancel());
  EXPECT_FALSE(h.valid());
  EXPECT_FALSE(h.cancel());
  s.run_until(1000);
  EXPECT_FALSE(fired);
}

TEST(EventHandle, StaleCancelAfterFiringIsSafeNoOp) {
  Simulation s;
  EventHandle h = s.at(100, [] {});
  s.run_until(1000);
  // The event already fired; the handle is stale, not dangling.
  EXPECT_TRUE(h.valid());  // the handle cannot know — but cancel is safe
  EXPECT_FALSE(h.cancel());
  EXPECT_FALSE(h.valid());
}

TEST(EventHandle, ResetForgetsWithoutCancelling) {
  Simulation s;
  bool fired = false;
  EventHandle h = s.at(100, [&] { fired = true; });
  h.reset();
  EXPECT_FALSE(h.valid());
  s.run_until(1000);
  EXPECT_TRUE(fired);  // reset released the handle, not the event
}

TEST(EventHandle, RescheduleReplacePattern) {
  // The idiom every periodic process uses: cancel the pending event (if
  // any), then overwrite the handle with the replacement.
  Simulation s;
  std::vector<int> fired;
  EventHandle pending = s.at(100, [&] { fired.push_back(1); });
  pending.cancel();
  pending = s.at(200, [&] { fired.push_back(2); });
  s.run_until(1000);
  EXPECT_EQ(fired, (std::vector<int>{2}));
}

TEST(EventHandle, CopiesShareTheUnderlyingEvent) {
  Simulation s;
  bool fired = false;
  EventHandle a = s.at(100, [&] { fired = true; });
  EventHandle b = a;
  EXPECT_TRUE(b.cancel());
  EXPECT_FALSE(a.cancel());  // generation check: already cancelled via b
  s.run_until(1000);
  EXPECT_FALSE(fired);
}

}  // namespace
}  // namespace spothost::sim

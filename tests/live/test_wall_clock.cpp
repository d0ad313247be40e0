// live::WallClock: the wall-time sim::Engine. Fast-replay must be
// indistinguishable from a Simulation run; real-time mode must map wall
// elapsed onto virtual milliseconds and honour the speed factor.
#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "live/wall_clock.hpp"
#include "simcore/simulation.hpp"

namespace spothost {
namespace {

using live::WallClock;
using sim::kSecond;
using sim::SimTime;

WallClock::Options replay_options() {
  WallClock::Options o;
  o.speed = WallClock::kMaxSpeed;
  return o;
}

TEST(WallClock, RejectsBadOptions) {
  WallClock::Options o;
  o.speed = 0.0;
  EXPECT_THROW(WallClock{o}, std::invalid_argument);
  o.speed = -2.0;
  EXPECT_THROW(WallClock{o}, std::invalid_argument);
  o.speed = 1.0;
  o.start_time = -1;
  EXPECT_THROW(WallClock{o}, std::invalid_argument);
}

TEST(WallClock, SchedulingGuardsMatchSimulation) {
  WallClock clock(replay_options());
  EXPECT_THROW(clock.after(-1, [] {}), std::invalid_argument);
  clock.poll();  // no-op on an empty queue
  clock.after(5, [] {});
  clock.poll();
  EXPECT_EQ(clock.now(), 5);
  EXPECT_THROW(clock.at(4, [] {}), std::invalid_argument);
}

TEST(WallClock, FastReplayPollCoalescesTimersInOrder) {
  // A burst of timers — out-of-order scheduling, duplicate timestamps —
  // drains in one poll() in (time, schedule-seq) order, exactly as a
  // Simulation would dispatch them.
  WallClock clock(replay_options());
  std::vector<int> fired;
  clock.at(30, [&] { fired.push_back(3); });
  clock.at(10, [&] { fired.push_back(1); });
  clock.at(20, [&] { fired.push_back(20); });
  clock.at(20, [&] { fired.push_back(21); });  // FIFO among equals
  clock.at(10, [&] { fired.push_back(2); });
  const std::size_t n = clock.poll();
  EXPECT_EQ(n, 5u);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 20, 21, 3}));
  EXPECT_EQ(clock.now(), 30);
  EXPECT_EQ(clock.dispatched(), 5u);
  EXPECT_EQ(clock.pending(), 0u);
}

TEST(WallClock, FastReplayMatchesSimulationDispatch) {
  // The same scheduling program produces the same dispatch sequence and the
  // same now() trajectory on both engines.
  auto program = [](sim::Engine& engine, std::vector<SimTime>& times) {
    engine.after(3, [&engine, &times] {
      times.push_back(engine.now());
      engine.after(4, [&engine, &times] { times.push_back(engine.now()); });
    });
    engine.at(5, [&engine, &times] { times.push_back(engine.now()); });
    engine.run_until(100);
    times.push_back(engine.now());
  };
  std::vector<SimTime> sim_times;
  std::vector<SimTime> wall_times;
  sim::Simulation simulation;
  program(simulation, sim_times);
  WallClock clock(replay_options());
  program(clock, wall_times);
  EXPECT_EQ(sim_times, (std::vector<SimTime>{3, 5, 7, 100}));
  EXPECT_EQ(sim_times, wall_times);
  EXPECT_EQ(simulation.dispatched(), clock.dispatched());
}

TEST(WallClock, CancelPreventsDispatch) {
  WallClock clock(replay_options());
  bool fired = false;
  auto handle = clock.after(10, [&] { fired = true; });
  EXPECT_TRUE(handle.cancel());
  EXPECT_FALSE(handle.cancel());  // second cancel is a harmless no-op
  clock.poll();
  EXPECT_FALSE(fired);
  EXPECT_EQ(clock.dispatched(), 0u);
}

TEST(WallClock, WallUntilNextReflectsQueueState) {
  WallClock replay(replay_options());
  EXPECT_FALSE(replay.wall_until_next().has_value());
  replay.after(50, [] {});
  ASSERT_TRUE(replay.wall_until_next().has_value());
  EXPECT_EQ(replay.wall_until_next()->count(), 0);  // replay: always due now

  WallClock::Options slow;
  slow.speed = 1.0;
  WallClock realtime(slow);
  realtime.after(60 * kSecond, [] {});
  const auto wait = realtime.wall_until_next();
  ASSERT_TRUE(wait.has_value());
  // Due about a minute of wall time out (minus the test's epsilon of runtime).
  EXPECT_GT(*wait, std::chrono::seconds{50});
  EXPECT_LE(*wait, std::chrono::seconds{60});
}

TEST(WallClock, WallUntilNextSaturatesAtATinySpeed) {
  // At the smallest positive speed, one virtual millisecond is more wall
  // time than any duration holds: the wait saturates at the cap instead of
  // overflowing the conversion.
  WallClock::Options tiny;
  tiny.speed = std::numeric_limits<double>::denorm_min();
  WallClock clock(tiny);
  clock.after(1, [] {});
  const auto wait = clock.wall_until_next();
  ASSERT_TRUE(wait.has_value());
  EXPECT_GT(wait->count(), 0);
  EXPECT_LE(*wait, WallClock::kMaxWallWait);
}

TEST(WallClock, RealTimeRunAdvancesWithWallTime) {
  // 200 virtual ms at 100x ≈ 2 ms of wall time: fast enough for CI, real
  // enough to prove the engine actually paces on the wall clock.
  WallClock::Options o;
  o.speed = 100.0;
  WallClock clock(o);
  std::vector<SimTime> fired;
  clock.at(50, [&] { fired.push_back(clock.now()); });
  clock.at(200, [&] { fired.push_back(clock.now()); });
  const auto wall_start = std::chrono::steady_clock::now();
  clock.run_until(200);
  const auto wall_elapsed = std::chrono::steady_clock::now() - wall_start;
  EXPECT_EQ(fired, (std::vector<SimTime>{50, 200}));
  EXPECT_EQ(clock.now(), 200);
  // Must have taken at least the mapped wall duration (2 ms), but CI jitter
  // means we only bound it loosely from above.
  EXPECT_GE(wall_elapsed, std::chrono::milliseconds{1});
  EXPECT_LT(wall_elapsed, std::chrono::seconds{30});
}

TEST(WallClock, PacedRunReturnsWhenQueueDrains) {
  // Engine::run() returns once the queue drains. The paced loop must not
  // sleep on the run-forever sentinel instead (ctest's TIMEOUT turns such a
  // hang into a failure).
  WallClock::Options o;
  o.speed = 1000.0;
  WallClock clock(o);
  bool fired = false;
  clock.at(50, [&] { fired = true; });
  clock.run();
  EXPECT_TRUE(fired);
  EXPECT_GE(clock.now(), 50);
  EXPECT_EQ(clock.pending(), 0u);
}

TEST(WallClock, PollNeverMovesTimeBackwards) {
  WallClock::Options o;
  o.speed = 10000.0;  // a poll after any sleep lands well past the timers
  WallClock clock(o);
  std::vector<SimTime> fired;
  clock.after(1, [&] { fired.push_back(clock.now()); });
  std::this_thread::sleep_for(std::chrono::milliseconds{5});
  clock.poll();
  const SimTime after_first = clock.now();
  EXPECT_GE(after_first, 1);
  clock.poll();
  EXPECT_GE(clock.now(), after_first);
  EXPECT_EQ(fired.size(), 1u);
}

TEST(WallClock, StartTimeAnchorsVirtualAxis) {
  WallClock::Options o;
  o.speed = WallClock::kMaxSpeed;
  o.start_time = 42 * kSecond;
  WallClock clock(o);
  EXPECT_EQ(clock.now(), 42 * kSecond);
  EXPECT_THROW(clock.at(41 * kSecond, [] {}), std::invalid_argument);
  bool fired = false;
  clock.after(kSecond, [&] { fired = true; });
  clock.run_until(44 * kSecond);
  EXPECT_TRUE(fired);
  EXPECT_EQ(clock.now(), 44 * kSecond);
}

}  // namespace
}  // namespace spothost

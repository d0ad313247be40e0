// ShardedSimulation: bit-identity with the serial engine (the PR 9
// non-negotiable), mailbox semantics, phase-rule enforcement, and the
// SPOTHOST_SHARDS knob. The byte-identity tests drive a workload whose
// callbacks are engine-agnostic — the same lambdas run on a plain
// Simulation (all "lanes" are the one clock) and on ShardedSimulation(K)
// (lanes are shard clocks) — and pin the recorded trace streams equal
// across K ∈ {1, 2, 3, 8}.
#include "simcore/sharded_sim.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/event.hpp"
#include "obs/sink.hpp"
#include "simcore/simulation.hpp"

namespace spothost::sim {
namespace {

using obs::EventKind;
using obs::TraceEvent;

constexpr SimTime kHorizon = 6 * kHour;

struct Recorder final : obs::TraceSink {
  std::vector<TraceEvent> events;
  void on_event(const TraceEvent& e) override { events.push_back(e); }
};

void emit(Clock& clock, EventKind kind, std::uint64_t id, double value) {
  obs::Tracer* tracer = clock.tracer();
  if (tracer == nullptr || !tracer->enabled()) return;
  TraceEvent e;
  e.t = clock.now();
  e.kind = kind;
  e.instance = id;
  e.value = value;
  tracer->emit(e);
}

// One synthetic service: periodic ticks on its own lane, a zero-delay child
// every 3rd tick, a scheduled-then-cancelled event every 4th (exercises
// lane-local cancel and arena slot reuse inside windows), and a far-future
// "doomed" event the global pulse cancels cross-lane from the serial phase.
struct Service {
  Clock* clock = nullptr;
  std::uint64_t id = 0;
  SimTime period = 0;
  std::uint64_t ticks = 0;
  EventHandle doomed;

  void tick() {
    ++ticks;
    emit(*clock, EventKind::kPriceChange, id, static_cast<double>(ticks));
    if (ticks % 3 == 0) {
      clock->after(0, [this] {
        emit(*clock, EventKind::kAcquisition, id, static_cast<double>(ticks));
      });
    }
    if (ticks % 4 == 0) {
      auto h = clock->after(period / 2, [this] {
        emit(*clock, EventKind::kOutageBegin, id, -1.0);
      });
      h.cancel();
    }
    clock->after(period, [this] { tick(); });
  }
};

struct Pulse {
  Engine* eng = nullptr;
  std::vector<Service>* services = nullptr;
  std::uint64_t n = 0;

  void fire() {
    ++n;
    emit(*eng, EventKind::kBillingHourTick, 0, static_cast<double>(n));
    // Cross-lane cancel from the serial phase (allowed): kill one service's
    // doomed event per pulse.
    if (n <= services->size()) (*services)[n - 1].doomed.cancel();
    eng->after(30 * kMinute, [this] { fire(); });
  }
};

/// Builds the workload on `eng`, mapping logical service i to lane_of(i),
/// runs to `horizon` (optionally in two segments), and returns the trace.
std::vector<TraceEvent> run_workload(
    Engine& eng, const std::function<Clock&(std::size_t)>& lane_of,
    SimTime horizon, bool split_run = false) {
  Recorder rec;
  obs::Tracer tracer;
  tracer.add_sink(&rec);
  eng.set_tracer(&tracer);

  constexpr std::size_t kServices = 24;
  std::vector<Service> services(kServices);
  for (std::size_t i = 0; i < kServices; ++i) {
    Service& s = services[i];
    s.clock = &lane_of(i);
    s.id = i + 1;
    // Every 5th service ticks exactly on the half-hour pulse grid, forcing
    // barrier-time ties; the rest have coprime-ish periods.
    s.period = (i % 5 == 0) ? 30 * kMinute
                            : static_cast<SimTime>(5 + i) * kMinute;
    s.clock->at(s.period, [&s] { s.tick(); });
    s.doomed = s.clock->at(horizon - 1, [&s] {
      emit(*s.clock, EventKind::kOutageEnd, s.id, 0.0);
    });
  }
  Pulse pulse{&eng, &services, 0};
  eng.at(30 * kMinute, [&pulse] { pulse.fire(); });

  if (split_run) {
    eng.run_until(horizon / 2);
    eng.run_until(horizon);
  } else {
    eng.run_until(horizon);
  }
  eng.set_tracer(nullptr);
  return rec.events;
}

std::vector<TraceEvent> serial_reference() {
  Simulation serial;
  return run_workload(
      serial, [&serial](std::size_t) -> Clock& { return serial; }, kHorizon);
}

// One instance, named for the queue every lane runs on; the parameter keeps
// the suite's test ids stable.
enum class Queue : std::uint8_t { kWheel };

class ShardedByteIdentity : public ::testing::TestWithParam<Queue> {};

TEST_P(ShardedByteIdentity, MatchesSerialForEveryShardCount) {
  const auto expected = serial_reference();
  ASSERT_FALSE(expected.empty());
  for (const std::size_t shards : {1u, 2u, 3u, 8u}) {
    ShardedSimulation eng(shards);
    const auto got = run_workload(
        eng,
        [&eng, shards](std::size_t i) -> Clock& {
          return eng.shard_clock(shard_of_key(i, shards));
        },
        kHorizon);
    EXPECT_EQ(got, expected) << "shards=" << shards;
    EXPECT_GT(eng.dispatched(), 0u);
  }
}

TEST_P(ShardedByteIdentity, SplitRunMatchesSingleRun) {
  const auto expected = serial_reference();
  ShardedSimulation eng(4);
  const auto got = run_workload(
      eng,
      [&eng](std::size_t i) -> Clock& {
        return eng.shard_clock(shard_of_key(i, 4));
      },
      kHorizon, /*split_run=*/true);
  EXPECT_EQ(got, expected);
}

INSTANTIATE_TEST_SUITE_P(Backends, ShardedByteIdentity,
                         ::testing::Values(Queue::kWheel),
                         [](const auto&) { return "Wheel"; });

TEST(ShardedSim, MailboxDeliveryIsKInvariant) {
  // The same logical post pattern must produce the same trace for every
  // shard count — mails are delivered in post order at the head of the next
  // window, regardless of which lane they land on.
  constexpr std::size_t kLogical = 12;
  std::vector<std::vector<TraceEvent>> runs;
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    auto eng = std::make_unique<ShardedSimulation>(shards);
    Recorder rec;
    obs::Tracer tracer;
    tracer.add_sink(&rec);
    eng->set_tracer(&tracer);

    struct Pulser {
      ShardedSimulation* eng;
      std::size_t shards;
      std::uint64_t n = 0;
      void fire() {
        ++n;
        for (std::uint64_t j = 0; j < kLogical; ++j) {
          const std::size_t s = shard_of_key(j, shards);
          Clock* cp = &eng->shard_clock(s);
          const std::uint64_t round = n;
          eng->post(s, [cp, j, round] {
            emit(*cp, EventKind::kPriceChange, j + 1,
                 static_cast<double>(round));
            cp->after(5 * kMinute, [cp, j, round] {
              emit(*cp, EventKind::kAcquisition, j + 1,
                   static_cast<double>(round));
            });
          });
        }
        if (n < 8) eng->after(20 * kMinute, [this] { fire(); });
      }
    };
    Pulser pulser{eng.get(), shards, 0};
    eng->at(20 * kMinute, [&pulser] { pulser.fire(); });
    eng->run_until(4 * kHour);
    runs.push_back(std::move(rec.events));
  }
  ASSERT_FALSE(runs.front().empty());
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i], runs.front()) << "run index " << i;
  }
}

TEST(ShardedSim, MailIsDeliveredAfterPostingTimestampBeforeLaterEvents) {
  ShardedSimulation eng(2);
  Recorder rec;
  obs::Tracer tracer;
  tracer.add_sink(&rec);
  eng.set_tracer(&tracer);
  Clock& c0 = eng.shard_clock(0);

  c0.at(10, [&c0] { emit(c0, EventKind::kPriceChange, 1, 0); });  // A
  eng.at(10, [&] {
    emit(eng, EventKind::kPriceChange, 2, 0);                     // G
    eng.post(0, [&c0] { emit(c0, EventKind::kPriceChange, 4, 0); });  // M
    eng.after(0, [&] { emit(eng, EventKind::kPriceChange, 3, 0); });  // Z
  });
  c0.at(20, [&c0] { emit(c0, EventKind::kPriceChange, 5, 0); });  // B
  eng.run_until(30);

  // The mail runs after EVERY event of the posting timestamp — including
  // the zero-delay child Z scheduled after the post — and before any later
  // event. This is the documented deferred-delivery contract.
  std::vector<std::uint64_t> order;
  for (const auto& e : rec.events) order.push_back(e.instance);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(rec.events[3].t, 10);  // the mail carries its posting time
  EXPECT_EQ(eng.now(), 30);
}

TEST(ShardedSim, GlobalSchedulingFromWindowThrows) {
  ShardedSimulation eng(2);
  Clock& c0 = eng.shard_clock(0);
  c0.at(5, [&eng] { eng.after(10, [] {}); });
  // No global events: the window runs to the horizon barrier, so the
  // callback executes in window context and must be rejected.
  EXPECT_THROW(eng.run_until(20), std::logic_error);
}

TEST(ShardedSim, CrossShardSchedulingFromWindowThrows) {
  ShardedSimulation eng(2);
  Clock& c0 = eng.shard_clock(0);
  Clock& c1 = eng.shard_clock(1);
  c0.at(5, [&c1] { c1.after(1, [] {}); });
  EXPECT_THROW(eng.run_until(20), std::logic_error);
}

TEST(ShardedSim, PostFromWindowThrows) {
  ShardedSimulation eng(2);
  Clock& c0 = eng.shard_clock(0);
  c0.at(5, [&eng] { eng.post(1, [] {}); });
  EXPECT_THROW(eng.run_until(20), std::logic_error);
}

TEST(ShardedSim, OwnLaneSchedulingAndCancelInWindowIsAllowed) {
  ShardedSimulation eng(2);
  int fired = 0;
  Clock& c0 = eng.shard_clock(0);
  c0.at(5, [&c0, &fired] {
    auto keep = c0.after(1, [&fired] { ++fired; });
    (void)keep;
    auto drop = c0.after(2, [&fired] { fired += 100; });
    EXPECT_TRUE(drop.cancel());
  });
  eng.run_until(20);
  EXPECT_EQ(fired, 1);
}

TEST(ShardedSim, SerialPhaseMayScheduleAcrossLanes) {
  ShardedSimulation eng(2);
  int fired = 0;
  // A global (barrier) callback may fan work out to any lane directly.
  eng.at(10, [&eng, &fired] {
    eng.shard_clock(0).after(5, [&fired] { ++fired; });
    eng.shard_clock(1).after(5, [&fired] { ++fired; });
  });
  eng.run_until(kHour);
  EXPECT_EQ(fired, 2);
}

TEST(ShardedSim, CrossLaneCancelFromWindowThrows) {
  // The other half of the hour-tick audit (DESIGN.md §9.2): handles minted
  // on the global clock may only be cancelled from the serial phase. A
  // window callback reaching across to cancel one is the bug the rule
  // exists to catch.
  ShardedSimulation eng(2);
  EventHandle global_handle = eng.at(15, [] {});
  eng.shard_clock(0).at(5, [&global_handle] { global_handle.cancel(); });
  EXPECT_THROW(eng.run_until(10), std::logic_error);
}

TEST(ShardedSim, RunStageEvaluatesAllTasksInParallelContext) {
  ShardedSimulation eng(3);
  eng.run_until(kHour);  // advance so lane-clock alignment is observable
  std::vector<SimTime> seen(3, -1);
  std::vector<Callback> tasks(3);
  tasks[0] = [&eng, &seen] { seen[0] = eng.shard_clock(0).now(); };
  tasks[2] = [&eng, &seen] { seen[2] = eng.shard_clock(2).now(); };
  eng.run_stage(std::move(tasks));
  // Idle lanes lag the global clock; the stage aligns participating lanes
  // to the barrier time so pure reads of "now" agree with the serial run.
  EXPECT_EQ(seen[0], kHour);
  EXPECT_EQ(seen[1], -1);  // null slot skipped
  EXPECT_EQ(seen[2], kHour);
  EXPECT_EQ(eng.stats().stages, 1u);
}

TEST(ShardedSim, RunStageWithAllNullTasksIsFree) {
  ShardedSimulation eng(2);
  eng.run_stage(std::vector<Callback>(2));
  EXPECT_EQ(eng.stats().stages, 0u);
}

TEST(ShardedSim, RunStageValidatesTaskCount) {
  ShardedSimulation eng(2);
  EXPECT_THROW(eng.run_stage(std::vector<Callback>(3)), std::invalid_argument);
}

TEST(ShardedSim, RunStageFromWindowThrows) {
  ShardedSimulation eng(2);
  eng.shard_clock(0).at(5, [&eng] {
    eng.run_stage(std::vector<Callback>(2));
  });
  EXPECT_THROW(eng.run_until(20), std::logic_error);
}

TEST(ShardedSim, StageTaskMayNotSchedule) {
  ShardedSimulation eng(2);
  std::vector<Callback> tasks(2);
  // Even the task's OWN lane is off-limits: stages are pure evaluation.
  tasks[0] = [&eng] { eng.shard_clock(0).after(1, [] {}); };
  EXPECT_THROW(eng.run_stage(std::move(tasks)), std::logic_error);
}

TEST(ShardedSim, StageTaskMayNotCancel) {
  ShardedSimulation eng(2);
  EventHandle h = eng.shard_clock(0).at(50, [] {});
  std::vector<Callback> tasks(2);
  tasks[0] = [&h] { h.cancel(); };
  EXPECT_THROW(eng.run_stage(std::move(tasks)), std::logic_error);
}

TEST(ShardedSim, StageTaskMayNotTrace) {
  ShardedSimulation eng(2);
  Recorder rec;
  obs::Tracer tracer;
  tracer.add_sink(&rec);
  eng.set_tracer(&tracer);
  std::vector<Callback> tasks(2);
  Clock& c0 = eng.shard_clock(0);
  tasks[0] = [&c0] { emit(c0, EventKind::kPriceChange, 1, 1.0); };
  EXPECT_THROW(eng.run_stage(std::move(tasks)), std::logic_error);
  // The illegal trace is dropped, not merged.
  eng.set_tracer(nullptr);
  EXPECT_TRUE(rec.events.empty());
}

TEST(ShardedSim, SameTickCancelSuppressesStagedVictim) {
  // The serial engine pops one event at a time, so a barrier-time callback
  // canceling another event due at the SAME timestamp suppresses it (cancel
  // returns true, victim never fires). The sharded barrier step bulk-stages
  // all same-tick events before running any of them; the staged victims must
  // still be cancellable — on the global lane, the canceler's own lane, and
  // across lanes.
  ShardedSimulation eng(2);
  int fired = 0;
  EventHandle victim_global, victim_shard0, victim_shard1;
  // Scheduled first -> lowest vgs -> runs first at the barrier.
  eng.at(10, [&] {
    EXPECT_TRUE(victim_global.cancel());
    EXPECT_TRUE(victim_shard0.cancel());
    EXPECT_TRUE(victim_shard1.cancel());
  });
  victim_global = eng.at(10, [&fired] { fired += 1; });
  victim_shard0 = eng.shard_clock(0).at(10, [&fired] { fired += 10; });
  victim_shard1 = eng.shard_clock(1).at(10, [&fired] { fired += 100; });
  eng.run_until(kHour);
  EXPECT_EQ(fired, 0);
  // Suppressed events are not dispatches (serial parity: only the canceler
  // and this trailing probe fire).
  int probed = 0;
  eng.at(kHour + 1, [&probed] { ++probed; });
  eng.run_until(2 * kHour);
  EXPECT_EQ(probed, 1);
  EXPECT_EQ(eng.dispatched(), 2u);
}

TEST(ShardedSim, SameTickCancelOfAlreadyFiredEventFails) {
  ShardedSimulation eng(2);
  int fired = 0;
  EventHandle first = eng.at(10, [&fired] { ++fired; });
  eng.at(10, [&first] { EXPECT_FALSE(first.cancel()); });
  eng.run_until(kHour);
  EXPECT_EQ(fired, 1);
}

TEST(ShardedSim, ArgumentValidation) {
  EXPECT_THROW(ShardedSimulation eng(0), std::invalid_argument);
  ShardedSimulation eng(2);
  EXPECT_EQ(eng.shard_count(), 2u);
  EXPECT_THROW((void)eng.shard_clock(2), std::out_of_range);
  EXPECT_THROW(eng.post(2, [] {}), std::out_of_range);
  EXPECT_THROW(eng.after(-1, [] {}), std::invalid_argument);
  EXPECT_THROW(eng.shard_clock(0).after(-1, [] {}), std::invalid_argument);
  eng.run_until(100);
  EXPECT_THROW(eng.at(50, [] {}), std::invalid_argument);
  EXPECT_THROW(eng.shard_clock(0).at(50, [] {}), std::invalid_argument);
}

TEST(ShardedSim, CountersAggregateAcrossLanes) {
  ShardedSimulation eng(2);
  int fired = 0;
  eng.at(10, [&fired] { ++fired; });
  eng.shard_clock(0).at(20, [&fired] { ++fired; });
  eng.shard_clock(1).at(30, [&fired] { ++fired; });
  eng.post(0, [&fired] { ++fired; });
  EXPECT_EQ(eng.pending(), 4u);
  eng.run_until(kHour);
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(eng.dispatched(), 4u);
  EXPECT_EQ(eng.pending(), 0u);
  EXPECT_EQ(eng.now(), kHour);
  const auto stats = eng.stats();
  EXPECT_GE(stats.windows, 1u);
  EXPECT_GE(stats.barrier_steps, 1u);
}

TEST(ShardedSim, RunForeverStopsAtLastEvent) {
  ShardedSimulation eng(2);
  eng.shard_clock(1).at(42, [] {});
  eng.run();
  EXPECT_EQ(eng.now(), 42);
  EXPECT_EQ(eng.shard_clock(0).now(), 42);
}

TEST(ShardedSimEnv, ShardKnobValidationAndClamp) {
  const auto hw = static_cast<std::size_t>(
      std::max(1u, std::thread::hardware_concurrency()));
  ASSERT_EQ(setenv("SPOTHOST_SHARDS", "garbage", 1), 0);
  EXPECT_EQ(default_shard_count(), 1u);
  ASSERT_EQ(setenv("SPOTHOST_SHARDS", "0", 1), 0);
  EXPECT_EQ(default_shard_count(), 1u);
  ASSERT_EQ(setenv("SPOTHOST_SHARDS", "-3", 1), 0);
  EXPECT_EQ(default_shard_count(), 1u);
  ASSERT_EQ(setenv("SPOTHOST_SHARDS", "2", 1), 0);
  EXPECT_EQ(default_shard_count(), std::min<std::size_t>(2, hw));
  // A request beyond the machine is clamped (with a logged warning), never
  // honoured: oversubscribed windows would only add barrier stall.
  ASSERT_EQ(setenv("SPOTHOST_SHARDS", "4096", 1), 0);
  EXPECT_EQ(default_shard_count(), hw);
  ASSERT_EQ(unsetenv("SPOTHOST_SHARDS"), 0);
  EXPECT_EQ(default_shard_count(), 1u);
}

TEST(ShardedSimEnv, FactoryHonoursExplicitShardsWithoutClamp) {
  // An explicit program choice is not hardware-clamped — byte identity
  // makes an oversubscribed K correct, just slower.
  auto eng = make_simulation_engine(8);
  int fired = 0;
  eng->at(10, [&fired] { ++fired; });
  eng->run_until(20);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng->now(), 20);
  // shards = 1 must be the plain serial engine (byte-transparent default).
  auto serial = make_simulation_engine(1);
  EXPECT_NE(dynamic_cast<Simulation*>(serial.get()), nullptr);
}

TEST(ShardOfKey, IsStableAndInRange) {
  for (std::size_t shards : {1u, 2u, 5u, 8u}) {
    for (std::uint64_t key = 0; key < 1000; ++key) {
      const std::size_t s = shard_of_key(key, shards);
      EXPECT_LT(s, shards);
      EXPECT_EQ(s, shard_of_key(key, shards));  // pure function of (key, K)
    }
  }
  // The mix actually spreads consecutive ids (regression guard against a
  // degenerate identity hash sending everything to shard key % K).
  std::vector<int> counts(8, 0);
  for (std::uint64_t key = 0; key < 800; ++key) ++counts[shard_of_key(key, 8)];
  for (const int c : counts) EXPECT_GT(c, 50);
}

}  // namespace
}  // namespace spothost::sim

// Differential fuzz: the timing wheel and the binary heap must be
// observationally identical. Both queues replay the same randomized
// schedule/cancel/pop sequence through the EventQueue interface; every pop
// must agree on (time, logical event), every cancel on its return value, and
// the complete firing order must match event for event. The heap is the
// simple reference (simcore/binary_heap_queue.hpp); this agreement is what
// lets a Simulation hand its events from the heap to the wheel mid-run
// without changing a byte.
//
// A second suite runs a whole Simulation against a bare heap through the
// moment the Simulation hands its events from its heap to its wheel.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "simcore/binary_heap_queue.hpp"
#include "simcore/event_arena.hpp"
#include "simcore/event_queue.hpp"
#include "simcore/rng.hpp"
#include "simcore/simulation.hpp"
#include "simcore/timing_wheel.hpp"

namespace spothost::sim {
namespace {

class QueuePair {
 public:
  QueuePair()
      : heap_(std::make_unique<BinaryHeapQueue>()),
        wheel_(std::make_unique<TimingWheelQueue>()) {}

  void schedule(SimTime when) {
    const int logical = next_logical_++;
    const EventId hid =
        heap_->schedule(when, [this, logical] { heap_fired_.push_back(logical); });
    const EventId wid = wheel_->schedule(
        when, [this, logical] { wheel_fired_.push_back(logical); });
    heap_ids_.emplace(logical, hid);
    wheel_ids_.emplace(logical, wid);
    live_.push_back(logical);
  }

  void cancel_random(std::uint64_t r) {
    if (live_.empty()) return;
    const std::size_t pick = static_cast<std::size_t>(r % live_.size());
    const int logical = live_[pick];
    live_[pick] = live_.back();
    live_.pop_back();
    const bool heap_ok = heap_->cancel(heap_ids_.at(logical));
    const bool wheel_ok = wheel_->cancel(wheel_ids_.at(logical));
    ASSERT_EQ(heap_ok, wheel_ok) << "cancel disagreement, logical " << logical;
  }

  void pop_one() {
    ASSERT_EQ(heap_->empty(), wheel_->empty());
    if (heap_->empty()) return;
    const SimTime next = heap_->next_time();
    ASSERT_EQ(next, wheel_->next_time());
    // Exercise the fused dispatch path too: a horizon just below the next
    // event must refuse on both backends.
    if (next > std::numeric_limits<SimTime>::min()) {
      EventQueue::Fired refused;
      ASSERT_FALSE(heap_->pop_due(next - 1, refused));
      ASSERT_FALSE(wheel_->pop_due(next - 1, refused));
    }
    EventQueue::Fired hf;
    EventQueue::Fired wf;
    ASSERT_TRUE(heap_->pop_due(next, hf));
    ASSERT_TRUE(wheel_->pop_due(next, wf));
    ASSERT_EQ(hf.time, wf.time);
    hf.callback();
    wf.callback();
    ASSERT_EQ(heap_fired_.size(), wheel_fired_.size());
    ASSERT_EQ(heap_fired_.back(), wheel_fired_.back())
        << "firing-order divergence at t=" << hf.time;
    frontier_ = hf.time;
  }

  void drain_all() {
    while (!heap_->empty() || !wheel_->empty()) pop_one();
    ASSERT_EQ(heap_fired_, wheel_fired_);
  }

  [[nodiscard]] SimTime frontier() const noexcept { return frontier_; }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_->size(); }

 private:
  std::unique_ptr<EventQueue> heap_;
  std::unique_ptr<EventQueue> wheel_;
  int next_logical_ = 0;
  std::vector<int> live_;  // logical ids not yet cancelled (may have fired)
  std::unordered_map<int, EventId> heap_ids_;
  std::unordered_map<int, EventId> wheel_ids_;
  std::vector<int> heap_fired_;
  std::vector<int> wheel_fired_;
  SimTime frontier_ = 0;
};

class QueueDifferential : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, QueueDifferential,
                         ::testing::Values(1u, 2u, 3u, 20150615u, 0xdeadbeefu));

TEST_P(QueueDifferential, RandomizedSequencesFireIdentically) {
  std::uint64_t state = GetParam();
  QueuePair pair;
  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t r = splitmix64(state);
    const std::uint64_t op = r % 100;
    if (op < 55 || pair.pending() == 0) {
      // Mostly near-future offsets, occasional bursts at the exact frontier
      // (FIFO ties), cross-level jumps, and rare overflow-range times.
      const std::uint64_t shape = splitmix64(state) % 10;
      SimTime delta = 0;
      if (shape < 3) {
        delta = static_cast<SimTime>(splitmix64(state) % 64);  // same window
      } else if (shape < 6) {
        delta = static_cast<SimTime>(splitmix64(state) % 100000);
      } else if (shape < 8) {
        delta = 0;  // exactly at the frontier: tie-break stress
      } else if (shape < 9) {
        delta = static_cast<SimTime>(splitmix64(state) % (1u << 30));
      } else {
        delta = TimingWheelQueue::kSpanMs +
                static_cast<SimTime>(splitmix64(state) % 1000);  // overflow
      }
      pair.schedule(pair.frontier() + delta);
    } else if (op < 75) {
      pair.cancel_random(splitmix64(state));
    } else {
      pair.pop_one();
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  pair.drain_all();
}

// One Simulation and one bare BinaryHeapQueue (the oracle, with its clock
// kept the way run_until keeps the Simulation's) fed the same script. Events
// carry logical ids: script events are multiples of 4, and a script event
// marked as a spawner schedules two children from inside its callback (ids
// +1 at its own millisecond and +2 later), so the heap can outgrow its limit
// mid-run_until.
class SimulationPair {
 public:
  void schedule(SimTime when, bool spawns) {
    const int id = ids();
    spawns_.push_back(spawns);
    times_.push_back(when);
    issue(kSim, id, when);
    issue(kHeap, id, when);
  }

  // Cancels logical id `id` on both sides (an id never issued included).
  // The Simulation's side goes through a copy of the event's handle, so a
  // later cancel of the same id asks the queues again.
  void cancel(int id) {
    const auto i = static_cast<std::size_t>(id);
    EventHandle handle = i < handles_.size() ? handles_[i] : EventHandle();
    const bool sim_ok = handle.cancel();
    const bool heap_ok = heap_.cancel(i < heap_ids_.size() ? heap_ids_[i] : 0);
    ASSERT_EQ(sim_ok, heap_ok) << "cancel disagreement, id " << id;
    if (sim_ok && sim_.on_wheel()) {
      ++(issued_on_heap_[i] ? pre_switch_cancels_ : post_switch_cancels_);
    }
  }

  void peek() {
    const std::optional<SimTime> want =
        heap_.empty() ? std::nullopt : std::optional<SimTime>(heap_.next_time());
    ASSERT_EQ(sim_.next_time(), want);
  }

  void run_until(SimTime horizon) {
    const bool was_on_heap = !sim_.on_wheel();
    sim_.run_until(horizon);
    if (was_on_heap && sim_.on_wheel()) switched_in_run_ = true;
    EventQueue::Fired fired;
    while (heap_.pop_due(horizon, fired)) {
      heap_now_ = fired.time;
      fired.callback();
    }
    if (heap_now_ < horizon && horizon != std::numeric_limits<SimTime>::max()) {
      heap_now_ = horizon;
    }
    ASSERT_EQ(sim_.now(), heap_now_);
    ASSERT_EQ(sim_.pending(), heap_.size());
    ASSERT_EQ(sim_fired_, heap_fired_) << "firing order diverged by t=" << horizon;
  }

  [[nodiscard]] SimTime now() const { return sim_.now(); }
  [[nodiscard]] std::size_t pending() const { return sim_.pending(); }
  [[nodiscard]] bool on_wheel() const { return sim_.on_wheel(); }
  [[nodiscard]] int ids() const { return 4 * static_cast<int>(spawns_.size()); }
  // The time script event `n` (0-based, in schedule order) was scheduled at.
  [[nodiscard]] SimTime script_time(std::size_t n) const { return times_[n]; }
  // The arena slot of logical id `id` on the Simulation's side.
  [[nodiscard]] std::uint32_t slot(int id) const {
    return EventArena::slot_of(handles_[static_cast<std::size_t>(id)].id());
  }
  [[nodiscard]] std::size_t fired_count() const { return sim_fired_.size(); }
  [[nodiscard]] bool switched_in_run() const { return switched_in_run_; }
  [[nodiscard]] int pre_switch_cancels() const { return pre_switch_cancels_; }
  [[nodiscard]] int post_switch_cancels() const { return post_switch_cancels_; }

 private:
  enum Side : bool { kHeap = false, kSim = true };

  // Schedules logical id `id` at `when` on one side.
  void issue(Side side, int id, SimTime when) {
    const auto i = static_cast<std::size_t>(id);
    if (handles_.size() <= i) {
      handles_.resize(i + 1);
      heap_ids_.resize(i + 1);
      issued_on_heap_.resize(i + 1);
    }
    if (side == kSim) {
      issued_on_heap_[i] = !sim_.on_wheel();
      handles_[i] = sim_.at(when, [this, id] { on_fire(kSim, sim_.now(), id); });
    } else {
      heap_ids_[i] = heap_.schedule(when, [this, id] { on_fire(kHeap, heap_now_, id); });
    }
  }

  // Event `id` firing at `now` on one side: log it, and have a spawner
  // schedule its children on the same side. Both sides fire in the same
  // order at the same times, so the children match too.
  void on_fire(Side side, SimTime now, int id) {
    (side == kSim ? sim_fired_ : heap_fired_).emplace_back(now, id);
    if (id % 4 != 0 || !spawns_[static_cast<std::size_t>(id / 4)]) return;
    issue(side, id + 1, now);
    issue(side, id + 2, now + 1 + (id * 7919) % 200000);
  }

  Simulation sim_;
  BinaryHeapQueue heap_;
  SimTime heap_now_ = 0;
  std::vector<bool> spawns_;  // per script event, at id / 4
  std::vector<SimTime> times_;  // per script event, at id / 4
  // Per logical id:
  std::vector<EventHandle> handles_;
  std::vector<EventId> heap_ids_;
  std::vector<bool> issued_on_heap_;
  std::vector<std::pair<SimTime, int>> sim_fired_;
  std::vector<std::pair<SimTime, int>> heap_fired_;
  bool switched_in_run_ = false;
  int pre_switch_cancels_ = 0;
  int post_switch_cancels_ = 0;
};

class SimulationDifferential : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SimulationDifferential,
                         ::testing::Values(1u, 20150615u, 0xdeadbeefu));

// One random step of the script: a schedule (at now, at an earlier script
// event's time if still ahead, near, hours out, or past the wheel's window),
// a cancel of any id issued so far, a peek, or a run_until slice. No script
// schedule once `pending` reaches `cap`.
void random_step(SimulationPair& pair, std::uint64_t& state, std::size_t cap) {
  const std::uint64_t op = splitmix64(state) % 100;
  if (op < 45 && pair.pending() < cap) {
    const std::uint64_t shape = splitmix64(state) % 10;
    SimTime delta = 0;
    if (shape < 2) {
      delta = 0;  // the current millisecond: FIFO ties
    } else if (shape < 4) {
      // A pending event's millisecond, scheduled on either side of the
      // switch: FIFO ties between events filed on the heap and the wheel.
      const auto events = static_cast<std::uint64_t>(pair.ids() / 4);
      if (events > 0) {
        const SimTime t = pair.script_time(splitmix64(state) % events);
        if (t > pair.now()) delta = t - pair.now();
      }
    } else if (shape < 6) {
      delta = static_cast<SimTime>(splitmix64(state) % 100000);
    } else if (shape < 9) {
      delta = static_cast<SimTime>(splitmix64(state) % (30 * kDay));
    } else {
      delta = TimingWheelQueue::kSpanMs +
              static_cast<SimTime>(splitmix64(state) % kDay);  // overflow
    }
    pair.schedule(pair.now() + delta, splitmix64(state) % 8 == 0);
  } else if (op < 65) {
    if (pair.ids() > 0) {
      pair.cancel(static_cast<int>(splitmix64(state) %
                                   static_cast<std::uint64_t>(pair.ids())));
    }
  } else if (op < 75) {
    pair.peek();
  } else {
    pair.run_until(pair.now() +
                   static_cast<SimTime>(splitmix64(state) % (2 * kHour)));
  }
}

TEST_P(SimulationDifferential, MatchesTheHeapThroughTheSwitch) {
  std::uint64_t state = GetParam();
  SimulationPair pair;

  // On the heap: churn well below the limit, with pops, so the arena has
  // recycled slots and the sequence counter has moved on.
  for (int step = 0; step < 3000; ++step) {
    random_step(pair, state, Simulation::kHeapMaxPending / 2);
    if (::testing::Test::HasFatalFailure()) return;
  }
  ASSERT_FALSE(pair.on_wheel());
  ASSERT_GT(pair.fired_count(), 0u);

  // Fill to the limit with events after now, then a spawner at now and one
  // more event at now: running to now fires the spawner first, and its two
  // children tip the heap over the limit from inside run_until.
  pair.run_until(pair.now() + 1);
  while (pair.pending() + 2 < Simulation::kHeapMaxPending) {
    pair.schedule(pair.now() + 1 +
                      static_cast<SimTime>(splitmix64(state) % (10 * kDay)),
                  false);
  }
  // Freed slots are reused last-in-first-out. Freeing two slots, the higher
  // first, hands the spawner the lower one and the event after it the
  // higher. The spawner's first child reuses the spawner's slot, so the
  // switch inherits two events at now whose slot order is the reverse of
  // their schedule order.
  const int first = pair.ids();
  pair.schedule(pair.now() + kDay, false);
  pair.schedule(pair.now() + kDay, false);
  const bool first_higher = pair.slot(first) > pair.slot(first + 4);
  pair.cancel(first_higher ? first : first + 4);
  pair.cancel(first_higher ? first + 4 : first);
  const int spawner = pair.ids();
  pair.schedule(pair.now(), true);
  pair.schedule(pair.now(), false);
  ASSERT_LT(pair.slot(spawner), pair.slot(spawner + 4));
  ASSERT_EQ(pair.pending(), Simulation::kHeapMaxPending);
  ASSERT_FALSE(pair.on_wheel());
  pair.run_until(pair.now());
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_TRUE(pair.switched_in_run());

  // On the wheel: the same script, cancelling handles from both sides of
  // the switch, then drain everything, overflow included.
  for (int step = 0; step < 6000; ++step) {
    random_step(pair, state, 2 * Simulation::kHeapMaxPending);
    if (::testing::Test::HasFatalFailure()) return;
  }
  pair.run_until(std::numeric_limits<SimTime>::max());
  EXPECT_EQ(pair.pending(), 0u);
  EXPECT_GT(pair.pre_switch_cancels(), 0);
  EXPECT_GT(pair.post_switch_cancels(), 0);
}

}  // namespace
}  // namespace spothost::sim

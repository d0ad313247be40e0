// Differential fuzz: the timing wheel and the binary heap must be
// observationally identical. Both queues replay the same randomized
// schedule/cancel/pop sequence through the EventQueue interface; every pop
// must agree on (time, logical event), every cancel on its return value, and
// the complete firing order must match event for event. The heap is the
// simple reference (binary_heap_queue.hpp, test-only); this agreement is
// what lets the wheel be the only queue production code runs on.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "binary_heap_queue.hpp"
#include "simcore/event_queue.hpp"
#include "simcore/rng.hpp"
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

}  // namespace
}  // namespace spothost::sim

// The discrete-event simulation engine.
//
// A Simulation owns the clock and the event queue. Components schedule
// callbacks at absolute or relative times; run_until() advances the clock to
// each event in order. The engine is single-threaded by design: determinism
// matters more than parallel event dispatch *within* a run — experiments
// parallelise across runs (seeds) instead. Runs come in two sizes. A
// 30-day single-service run dispatches ~10^4 events from a queue that holds
// a handful, and the paper's evaluation is thousands of them; one
// simulation carrying a 100k-1M-service fleet pushes 10^8-10^9 periodic
// hour-tick/poll events through this loop from a queue that holds millions.
// So every run starts on a binary heap (simcore/binary_heap_queue.hpp) and,
// the first time its live events exceed kHeapMaxPending, hands the heap's
// arena to a hierarchical timing wheel (O(1) per event; see
// simcore/timing_wheel.hpp) for good. Ids, handles and FIFO order carry
// across the switch. Both queues are held as their final types, so
// dispatch makes no virtual queue call.
//
// run_until() is the one serial dispatch loop: live::WallClock paces a
// Simulation it owns (sleeping on next_time(), then calling run_until() with
// the wall-mapped time), so simulated and wall-time runs dispatch through
// the same code.
//
// Policy code should not depend on this class: it programs against the
// narrow sim::Clock interface (simcore/clock.hpp) that Simulation
// implements, and manages its pending events through the EventHandle values
// that at()/after() return. Run-control code (the experiment layer) uses
// the sim::Engine interface (simcore/engine.hpp) so the same wiring can
// drive a live::WallClock instead; scripts/check_layering.sh keeps this
// header out of sched/virt/cloud.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

#include "simcore/binary_heap_queue.hpp"
#include "simcore/clock.hpp"
#include "simcore/engine.hpp"
#include "simcore/time.hpp"
#include "simcore/timing_wheel.hpp"

namespace spothost::sim {

class Simulation final : public Engine {
 public:
  /// Live events above which a run leaves the binary heap for the timing
  /// wheel, for good. Measured on a 4-vCPU VM (GCC 12.2, Release), three
  /// runs each. BM_QueueHold (bench/bench_perf_engine.cpp), ns per event,
  /// heap vs wheel: price-step-like delays 36-64 vs 56-68 at 4-8 pending,
  /// 75-103 vs 68-91 at 128, 113-157 vs 60-94 at 1,024; hour-tick-like
  /// delays 21-41 vs 48-70 at 4-16, 73-95 vs 56-68 at 128. With the queue
  /// hot in cache the wheel already wins from about 32. Whole storm
  /// fleet-months moved the crossover up: the heap was 15-25 % cheaper per
  /// event at 9-40 pending, and the two were even (within 5 %) from 136 to
  /// 2,056, with nothing measured in between. Those numbers come from a
  /// throwaway driver that is not in the repository, over the library built
  /// once with this constant at 0 and once at 2^40. No perfbench workload
  /// holds between about 44 and 2,000 pending (a sweep cell at most 12,
  /// serve_tail at most 44, fleet_storm switches in start()), so nothing
  /// measured end to end tells 32, 128 and 1,024 apart: 128 is a choice
  /// inside that gap, not a measured optimum.
  static constexpr std::size_t kHeapMaxPending = 128;

  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulation time.
  [[nodiscard]] SimTime now() const noexcept override { return now_; }

  /// Schedules `cb` at absolute time `when` (must be >= now()).
  EventHandle at(SimTime when, Callback cb) override;

  /// Schedules `cb` after a relative delay (must be >= 0).
  EventHandle after(SimTime delay, Callback cb) override;

  /// Cancels a pending event; returns false if it already fired. Prefer
  /// EventHandle::cancel() in policy code.
  bool cancel(EventId id) override {
    return wheel_ ? wheel_->cancel(id) : heap_.cancel(id);
  }

  /// Runs events until the queue is empty or the clock would pass `horizon`.
  /// The clock is left at min(horizon, last event time); events scheduled at
  /// exactly `horizon` do fire.
  void run_until(SimTime horizon) override;

  /// Number of events dispatched so far (for perf benchmarking and tests).
  [[nodiscard]] std::uint64_t dispatched() const noexcept override {
    return dispatched_;
  }

  /// Pending live events.
  [[nodiscard]] std::size_t pending() const override {
    return wheel_ ? wheel_->size() : heap_.size();
  }

  /// Time of the earliest pending event; nullopt when idle. What a pacing
  /// engine (live::WallClock) sleeps on between run_until() calls.
  [[nodiscard]] std::optional<SimTime> next_time() const {
    if (pending() == 0) return std::nullopt;
    return wheel_ ? wheel_->next_time() : heap_.next_time();
  }

  /// True once the run has moved its events to the timing wheel (test hook).
  [[nodiscard]] bool on_wheel() const noexcept { return wheel_ != nullptr; }

  /// Attaches the run's trace dispatcher (not owned; nullptr disables).
  /// Components that hold a Clock& read the tracer from here, so one attach
  /// point covers the provider, scheduler, and anything else wired to this
  /// engine. Disabled tracing costs emitters a single null check.
  void set_tracer(obs::Tracer* tracer) noexcept override { tracer_ = tracer; }
  [[nodiscard]] obs::Tracer* tracer() const noexcept override { return tracer_; }

  /// Attaches the run's fault-injection source (not owned; nullptr = no
  /// injection). Mirrors set_tracer: components holding a Clock& read the
  /// injector from here, so one attach point covers the provider and the
  /// scheduler without constructor plumbing. An injector with an
  /// empty FaultPlan is equivalent to none (zero draws, zero events).
  void set_fault_injector(faults::FaultInjector* injector) noexcept override {
    fault_injector_ = injector;
  }
  [[nodiscard]] faults::FaultInjector* fault_injector() const noexcept override {
    return fault_injector_;
  }

 private:
  // Files an event on the current queue, switching to the wheel when the
  // heap outgrows kHeapMaxPending.
  EventId schedule(SimTime when, Callback&& cb);

  SimTime now_ = 0;
  // The queue of a small run. Empty once wheel_ exists.
  BinaryHeapQueue heap_;
  // Built at the switch, from heap_'s arena; null until then.
  std::unique_ptr<TimingWheelQueue> wheel_;
  std::uint64_t dispatched_ = 0;
  obs::Tracer* tracer_ = nullptr;
  faults::FaultInjector* fault_injector_ = nullptr;
};

}  // namespace spothost::sim

// The discrete-event simulation engine.
//
// A Simulation owns the clock and the event queue. Components schedule
// callbacks at absolute or relative times; run_until() advances the clock to
// each event in order. The engine is single-threaded by design: determinism
// matters more than parallel event dispatch *within* a run — experiments
// parallelise across runs (seeds) instead. What changed with fleet scale is
// the event rate a single run must sustain: a 30-day single-service run is
// ~10^4 events, but one simulation carrying a 100k-1M-service fleet pushes
// 10^8-10^9 periodic hour-tick/poll events through this loop, which is why
// the queue behind it is a hierarchical timing wheel (O(1) per event; see
// simcore/timing_wheel.hpp), held by value so dispatch makes no virtual
// queue call.
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

#include <cstdint>
#include <optional>

#include "simcore/clock.hpp"
#include "simcore/engine.hpp"
#include "simcore/time.hpp"
#include "simcore/timing_wheel.hpp"

namespace spothost::sim {

class Simulation final : public Engine {
 public:
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
  bool cancel(EventId id) override { return queue_.cancel(id); }

  /// Runs events until the queue is empty or the clock would pass `horizon`.
  /// The clock is left at min(horizon, last event time); events scheduled at
  /// exactly `horizon` do fire.
  void run_until(SimTime horizon) override;

  /// Number of events dispatched so far (for perf benchmarking and tests).
  [[nodiscard]] std::uint64_t dispatched() const noexcept override {
    return dispatched_;
  }

  /// Pending live events.
  [[nodiscard]] std::size_t pending() const override { return queue_.size(); }

  /// Time of the earliest pending event; nullopt when idle. What a pacing
  /// engine (live::WallClock) sleeps on between run_until() calls.
  [[nodiscard]] std::optional<SimTime> next_time() const {
    if (queue_.empty()) return std::nullopt;
    return queue_.next_time();
  }

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
  SimTime now_ = 0;
  TimingWheelQueue queue_;
  std::uint64_t dispatched_ = 0;
  obs::Tracer* tracer_ = nullptr;
  faults::FaultInjector* fault_injector_ = nullptr;
};

}  // namespace spothost::sim

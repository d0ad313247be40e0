// The wall-time engine: a pacer that drives a sim::Simulation it owns from
// std::chrono::steady_clock.
//
// WallClock maps elapsed wall time onto the same millisecond SimTime axis
// the simulation uses. It keeps no queue and no dispatch loop of its own:
// scheduling, cancelling, the tracer and the fault injector forward to the
// Simulation, and every dispatch is Simulation::run_until(target) with
// `target` the wall-mapped virtual time — so the policy layer cannot tell
// which engine is underneath, and sim<->replay parity holds by construction.
// Three speeds:
//
//   * speed 1.0  — real time: one virtual millisecond per wall millisecond.
//   * speed N    — paced replay: N virtual ms per wall ms (demo / soak).
//   * kMaxSpeed  — deterministic fast-replay: time jumps straight from event
//     to event with no sleeping, exactly the discrete-event semantics of
//     Simulation::run_until. This is the parity mode: replaying a recorded
//     feed here produces the byte-identical trace the simulation produces
//     (tests/live/test_serve_parity.cpp pins it, paced runs included).
//
// Time only advances inside poll()/run_until() — between calls now() is the
// time of the last dispatch target, never a raw steady_clock read. That
// keeps the discrete-event invariants (now() is stable within a callback,
// events fire in (time, schedule-seq) order, scheduling is monotone) intact
// on the wall path; the price is that now() lags wall time by up to one
// poll interval, which the serve loop keeps at ~10 ms.
//
// Single-threaded, like Simulation: all scheduling and polling must happen
// on one thread. Feed ingestion from another thread must be handed over via
// the feed's own synchronization (live::FileTailFeed reads a file, so the
// filesystem is the handoff).
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>

#include "simcore/engine.hpp"
#include "simcore/simulation.hpp"
#include "simcore/time.hpp"

namespace spothost::live {

class WallClock final : public sim::Engine {
 public:
  /// speed value selecting deterministic fast-replay.
  static constexpr double kMaxSpeed = std::numeric_limits<double>::infinity();

  struct Options {
    /// Virtual milliseconds per wall millisecond; kMaxSpeed = fast-replay.
    /// Must be > 0.
    double speed = 1.0;
    /// Initial virtual time.
    sim::SimTime start_time = 0;
  };

  WallClock() : WallClock(Options{1.0, 0}) {}
  explicit WallClock(Options options);

  // --- sim::Clock / sim::Engine, forwarded to the Simulation --------------
  [[nodiscard]] sim::SimTime now() const noexcept override { return sim_.now(); }
  sim::EventHandle at(sim::SimTime when, Callback cb) override {
    return sim_.at(when, std::move(cb));
  }
  sim::EventHandle after(sim::SimTime delay, Callback cb) override {
    return sim_.after(delay, std::move(cb));
  }
  bool cancel(sim::EventId id) override { return sim_.cancel(id); }
  [[nodiscard]] obs::Tracer* tracer() const noexcept override {
    return sim_.tracer();
  }
  [[nodiscard]] faults::FaultInjector* fault_injector() const noexcept override {
    return sim_.fault_injector();
  }
  [[nodiscard]] std::uint64_t dispatched() const noexcept override {
    return sim_.dispatched();
  }
  [[nodiscard]] std::size_t pending() const override { return sim_.pending(); }
  void set_tracer(obs::Tracer* tracer) noexcept override {
    sim_.set_tracer(tracer);
  }
  void set_fault_injector(faults::FaultInjector* injector) noexcept override {
    sim_.set_fault_injector(injector);
  }

  /// Fast-replay: exactly Simulation::run_until (no sleeping).
  /// Real time / paced: dispatches due events and sleeps between them until
  /// virtual time reaches `horizon`; with the run-forever sentinel (run())
  /// it returns once the queue drains, now() at the wall-mapped time of the
  /// last dispatch.
  void run_until(sim::SimTime horizon) override;

  // --- the serve loop's surface ------------------------------------------
  /// Dispatches everything currently due — in fast-replay, *everything*
  /// pending (timers coalesce into one (time, seq)-ordered batch; see
  /// tests/live/test_wall_clock.cpp) — and advances now() to the wall-mapped
  /// time. Never sleeps. Returns the number of events dispatched.
  std::size_t poll();

  /// Wall duration until the next pending event is due (zero if already due
  /// or in fast-replay); nullopt when idle. The serve loop sleeps on this.
  [[nodiscard]] std::optional<std::chrono::nanoseconds> wall_until_next() const;

  [[nodiscard]] bool fast_replay() const noexcept { return replay_; }
  [[nodiscard]] double speed() const noexcept { return speed_; }

 private:
  /// Virtual time corresponding to the current wall instant.
  [[nodiscard]] sim::SimTime wall_virtual_now() const;

  sim::Simulation sim_;
  double speed_ = 1.0;
  bool replay_ = false;
  std::chrono::steady_clock::time_point anchor_wall_;
  sim::SimTime anchor_virtual_ = 0;
};

}  // namespace spothost::live

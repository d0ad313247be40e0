// The run-control seam above sim::Clock.
//
// Clock is what policy code *inside* a run needs (now/at/after/cancel);
// Engine is what the code *around* a run needs: drive the event loop to a
// horizon, attach the run-scoped tracer and fault injector, and read the
// dispatch counter for profiling. Two engines implement it:
//
//   * sim::Simulation — virtual time; run_until() consumes the queue as fast
//     as the CPU allows (simcore/simulation.hpp).
//   * live::WallClock — wall time; paces a Simulation it owns, sleeping
//     between events, or fast-replays deterministically at --speed max
//     (live/wall_clock.hpp).
//
// The experiment layer (sched::World, metrics) programs against Engine so
// the same wiring runs a backtest or a live session; only code that needs
// Simulation::next_time() (the pacer) names the concrete type.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>

#include "simcore/clock.hpp"
#include "simcore/time.hpp"

namespace spothost::sim {

class Engine : public Clock {
 public:
  /// Runs events until the queue is empty or the clock would pass `horizon`;
  /// events at exactly `horizon` do fire, and the clock is left at `horizon`
  /// (or at the last event time if `horizon` is the run-forever sentinel).
  /// A wall-clock engine blocks in real time; a simulation never does.
  virtual void run_until(SimTime horizon) = 0;

  /// Runs until the queue drains completely.
  void run() { run_until(std::numeric_limits<SimTime>::max()); }

  /// Events dispatched so far (profiling, tests).
  [[nodiscard]] virtual std::uint64_t dispatched() const noexcept = 0;

  /// Pending live events.
  [[nodiscard]] virtual std::size_t pending() const = 0;

  /// Attaches the run's trace dispatcher (not owned; nullptr disables).
  /// Components holding a Clock& read it back via Clock::tracer(), so one
  /// attach point covers everything wired to this engine.
  virtual void set_tracer(obs::Tracer* tracer) noexcept = 0;

  /// Attaches the run's fault-injection source (not owned; nullptr = none).
  virtual void set_fault_injector(faults::FaultInjector* injector) noexcept = 0;
};

/// Constructs the simulation engine (a sim::Simulation) behind the Engine
/// interface. Lets engine-agnostic code (sched::World) build it without
/// including simulation.hpp — the layering lint forbids that below the
/// experiment layer.
[[nodiscard]] std::unique_ptr<Engine> make_simulation_engine();

}  // namespace spothost::sim

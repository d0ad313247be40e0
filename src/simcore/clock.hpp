// The narrow scheduling interface policy code programs against.
//
// Schedulers need exactly four things from the engine: the current time, a
// way to schedule at an absolute or relative time, and a way to cancel.
// Clock is that contract. Two engines implement
// it — sim::Simulation (virtual time, simcore/simulation.hpp) and
// live::WallClock (wall time / paced replay, live/wall_clock.hpp) — and
// policy code holds a Clock& so the same scheduler runs a backtest or a live
// feed without knowing which. The layering is enforced, not promised:
// scripts/check_layering.sh fails CI if sched/virt/cloud code includes the
// concrete engine header.
//
// Two pieces of per-run context ride along with the clock: the trace
// dispatcher and the fault injector. Both are attach-once, engine-owned
// pointers that every component wired to the same run must agree on, so the
// clock — the one object they all already share — is their natural home.
//
// Scheduling returns an EventHandle, a small value type that pairs the event
// id with the clock that issued it. Handles make the common lifecycle
// explicit: `if (h) h.cancel();` replaces the scattered
// `if (id != kInvalidEventId) sim.cancel(id);` dance, and a cancelled or
// fired handle can be cancelled again harmlessly (generation-checked ids
// make stale cancels a no-op returning false).
#pragma once

#include <cstdint>
#include <utility>

#include "simcore/callback.hpp"
#include "simcore/time.hpp"

namespace spothost::obs {
class Tracer;  // obs/sink.hpp — simcore stays independent of obs
}

namespace spothost::faults {
class FaultInjector;  // faults/injector.hpp — simcore stays independent of faults
}

namespace spothost::sim {

/// Opaque identifier for a scheduled event; usable to cancel it. Packed as
/// (generation << 32 | arena index) by the queue backends, so ids are unique
/// for the lifetime of a queue and stale cancels are detected, not UB.
using EventId = std::uint64_t;

/// Sentinel returned for operations that never produce a real event.
/// Backends start generations at 1, so no real id is ever 0.
inline constexpr EventId kInvalidEventId = 0;

class EventHandle;

/// What policy code may do with time. Implemented by sim::Simulation and
/// live::WallClock (via sim::Engine). All scheduling is single-threaded
/// within a run; see Simulation for the engine's threading contract.
class Clock {
 public:
  /// Move-only small-buffer callable (simcore/callback.hpp); lambdas convert
  /// implicitly, exactly as they did when this was std::function.
  using Callback = sim::Callback;

  virtual ~Clock() = default;

  /// Current time.
  [[nodiscard]] virtual SimTime now() const noexcept = 0;

  /// Schedules `cb` at absolute time `when` (must be >= now()).
  virtual EventHandle at(SimTime when, Callback cb) = 0;

  /// Schedules `cb` after a relative delay (must be >= 0).
  virtual EventHandle after(SimTime delay, Callback cb) = 0;

  /// Cancels a pending event; returns false if it already fired, was already
  /// cancelled, or never existed. Prefer EventHandle::cancel().
  virtual bool cancel(EventId id) = 0;

  /// The run's trace dispatcher (nullptr = tracing disabled). See
  /// Simulation::set_tracer for the attach point.
  [[nodiscard]] virtual obs::Tracer* tracer() const noexcept = 0;

  /// The run's fault-injection source (nullptr = no injection). See
  /// Simulation::set_fault_injector for the attach point.
  [[nodiscard]] virtual faults::FaultInjector* fault_injector() const noexcept = 0;
};

/// A cancellable claim on one scheduled event. Copyable value type: copies
/// refer to the same event, and cancelling through any of them invalidates
/// the event for all (later cancels return false). Default-constructed or
/// reset() handles are inert.
class EventHandle {
 public:
  constexpr EventHandle() noexcept = default;
  constexpr EventHandle(Clock* clock, EventId id) noexcept
      : clock_(clock), id_(id) {}

  /// True if this handle was issued for a real event and has not been
  /// cancelled *through this handle*. Does not query the queue: a fired
  /// event's handle stays "valid" until cancelled or reset (the cancel then
  /// returns false).
  [[nodiscard]] constexpr bool valid() const noexcept {
    return clock_ != nullptr && id_ != kInvalidEventId;
  }
  [[nodiscard]] constexpr explicit operator bool() const noexcept {
    return valid();
  }

  /// Cancels the event through the issuing clock and resets this handle.
  /// Returns false (harmlessly) if the event already fired, was cancelled,
  /// or the handle was inert.
  bool cancel() {
    if (!valid()) return false;
    Clock* clock = std::exchange(clock_, nullptr);
    const EventId id = std::exchange(id_, kInvalidEventId);
    return clock->cancel(id);
  }

  /// Forgets the event without cancelling it (e.g. after it fired).
  constexpr void reset() noexcept {
    clock_ = nullptr;
    id_ = kInvalidEventId;
  }

  /// The raw id, for logging and tests.
  [[nodiscard]] constexpr EventId id() const noexcept { return id_; }

 private:
  Clock* clock_ = nullptr;
  EventId id_ = kInvalidEventId;
};

}  // namespace spothost::sim

// Cancellable discrete-event queue: the contract two implementations share.
//
// EventQueue is implemented over the shared EventArena slab
// (simcore/event_arena.hpp) twice:
//
//   * TimingWheelQueue (simcore/timing_wheel.hpp) — hierarchical timing
//     wheel, O(1) schedule/cancel/pop for the massively periodic hour-tick
//     and poll events that dominate fleet runs. The only production queue:
//     Simulation holds one by value, so the dispatch loop makes no virtual
//     queue call.
//   * the binary heap (tests/simcore/binary_heap_queue.hpp) — the classic
//     O(log n) heap, built only into the tests as the differential oracle.
//
// Determinism contract (both implementations, enforced by the contract
// suite and the lockstep differential fuzz in tests/simcore): events pop in
// (time, schedule order) — FIFO among equal timestamps — so same-seed runs
// are byte-identical and the wheel's answers can be checked against the
// simple heap's.
//
// Only simcore owns a queue: scripts/check_layering.sh fails if a src/ file
// outside src/simcore/ includes this header, the wheel's, or the arena's.
#pragma once

#include <cstddef>

#include "simcore/clock.hpp"
#include "simcore/time.hpp"

namespace spothost::sim {

class EventQueue {
 public:
  using Callback = sim::Callback;  // simcore/callback.hpp, via clock.hpp

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  virtual ~EventQueue() = default;

  /// Enqueues `cb` to fire at absolute time `when`. Returns a cancellation
  /// id. Implementations may require monotone scheduling (when >= the time
  /// of the last pop); the Simulation's now() guard guarantees it.
  virtual EventId schedule(SimTime when, Callback cb) = 0;

  /// Cancels a pending event. Returns false if the event already fired,
  /// was already cancelled, or never existed.
  virtual bool cancel(EventId id) = 0;

  /// True if no live (non-cancelled) events remain.
  [[nodiscard]] virtual bool empty() const = 0;

  /// Number of live events.
  [[nodiscard]] virtual std::size_t size() const = 0;

  /// Timestamp of the earliest live event. Precondition: !empty().
  [[nodiscard]] virtual SimTime next_time() const = 0;

  /// Removes and returns the earliest live event. The callback is *moved*
  /// out of storage — dispatch never copies a callable.
  /// Precondition: !empty().
  struct Fired {
    SimTime time;
    EventId id;
    Callback callback;
  };
  virtual Fired pop() = 0;

  /// Fused peek-and-pop, the dispatch loop's fast path: when the earliest
  /// live event fires at or before `horizon`, pops it into `out` and
  /// returns true; otherwise returns false with `out` untouched. One call
  /// per dispatched event instead of three (empty / next_time / pop), and
  /// implementations skip the duplicated find-the-earliest work.
  virtual bool pop_due(SimTime horizon, Fired& out) {
    if (empty() || next_time() > horizon) return false;
    out = pop();
    return true;
  }

  /// Drops all pending events. Ids issued before clear() stay invalid.
  virtual void clear() = 0;
};

}  // namespace spothost::sim

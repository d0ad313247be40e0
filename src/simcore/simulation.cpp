#include "simcore/simulation.hpp"

#include <limits>
#include <memory>
#include <stdexcept>

namespace spothost::sim {

EventId Simulation::schedule(SimTime when, Callback&& cb) {
  if (wheel_) return wheel_->schedule(when, std::move(cb));
  const EventId id = heap_.schedule(when, std::move(cb));
  if (heap_.size() > kHeapMaxPending) {
    // Every live event is at or after now_, so the wheel can file them all
    // relative to it; their ids and sequences move with the arena.
    wheel_ = std::make_unique<TimingWheelQueue>(heap_.take_arena(), now_);
  }
  return id;
}

EventHandle Simulation::at(SimTime when, Callback cb) {
  if (when < now_) {
    throw std::invalid_argument("Simulation::at: scheduling in the past");
  }
  return EventHandle{this, schedule(when, std::move(cb))};
}

EventHandle Simulation::after(SimTime delay, Callback cb) {
  if (delay < 0) {
    throw std::invalid_argument("Simulation::after: negative delay");
  }
  return EventHandle{this, schedule(now_ + delay, std::move(cb))};
}

void Simulation::run_until(SimTime horizon) {
  EventQueue::Fired fired;
  // Both queues are final classes held by this object, so either pop is a
  // direct call; a run switches at most once, so the branch predicts well.
  while (wheel_ ? wheel_->pop_due(horizon, fired)
                : heap_.pop_due(horizon, fired)) {
    now_ = fired.time;
    ++dispatched_;
    fired.callback();
  }
  if (now_ < horizon && horizon != std::numeric_limits<SimTime>::max()) {
    now_ = horizon;
  }
}

std::unique_ptr<Engine> make_simulation_engine() {
  return std::make_unique<Simulation>();
}

}  // namespace spothost::sim

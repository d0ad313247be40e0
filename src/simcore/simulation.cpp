#include "simcore/simulation.hpp"

#include <limits>
#include <memory>
#include <stdexcept>

namespace spothost::sim {

EventHandle Simulation::at(SimTime when, Callback cb) {
  if (when < now_) {
    throw std::invalid_argument("Simulation::at: scheduling in the past");
  }
  return EventHandle{this, queue_.schedule(when, std::move(cb))};
}

EventHandle Simulation::after(SimTime delay, Callback cb) {
  if (delay < 0) {
    throw std::invalid_argument("Simulation::after: negative delay");
  }
  return EventHandle{this, queue_.schedule(now_ + delay, std::move(cb))};
}

void Simulation::run_until(SimTime horizon) {
  EventQueue::Fired fired;
  while (queue_.pop_due(horizon, fired)) {
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

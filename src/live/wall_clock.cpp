#include "live/wall_clock.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>

namespace spothost::live {

namespace {
constexpr sim::SimTime kForever = std::numeric_limits<sim::SimTime>::max();
}  // namespace

WallClock::WallClock(Options options)
    : speed_(options.speed),
      replay_(options.speed == kMaxSpeed),
      anchor_wall_(std::chrono::steady_clock::now()),
      anchor_virtual_(options.start_time) {
  if (!(options.speed > 0.0) || std::isnan(options.speed)) {
    throw std::invalid_argument("WallClock: speed must be > 0");
  }
  if (options.start_time < 0) {
    throw std::invalid_argument("WallClock: negative start time");
  }
  // The Simulation is still empty, so this only moves its clock.
  sim_.run_until(options.start_time);
}

sim::SimTime WallClock::wall_virtual_now() const {
  if (replay_) return kForever;
  const auto elapsed = std::chrono::steady_clock::now() - anchor_wall_;
  const double wall_ms =
      std::chrono::duration<double, std::milli>(elapsed).count();
  const double virtual_ms = static_cast<double>(anchor_virtual_) + wall_ms * speed_;
  if (virtual_ms >= static_cast<double>(kForever)) return kForever;
  return static_cast<sim::SimTime>(virtual_ms);
}

std::chrono::nanoseconds WallClock::wall_wait(sim::SimTime virtual_ms) const {
  constexpr double kCapMs =
      std::chrono::duration<double, std::milli>(kMaxWallWait).count();
  const double wall_ms = std::min(static_cast<double>(virtual_ms) / speed_, kCapMs);
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double, std::milli>(wall_ms));
}

std::size_t WallClock::poll() {
  const std::uint64_t before = sim_.dispatched();
  sim_.run_until(std::max(now(), wall_virtual_now()));
  return static_cast<std::size_t>(sim_.dispatched() - before);
}

std::optional<std::chrono::nanoseconds> WallClock::wall_until_next() const {
  const std::optional<sim::SimTime> next = sim_.next_time();
  if (!next) return std::nullopt;
  if (replay_) return std::chrono::nanoseconds{0};
  const sim::SimTime vnow = wall_virtual_now();
  if (*next <= vnow) return std::chrono::nanoseconds{0};
  return wall_wait(*next - vnow);
}

void WallClock::run_until(sim::SimTime horizon) {
  if (replay_) {
    sim_.run_until(horizon);
    return;
  }
  for (;;) {
    const sim::SimTime target = std::min(horizon, std::max(now(), wall_virtual_now()));
    sim_.run_until(target);
    if (target >= horizon) return;
    // Sleep until the next pending event is due (or the horizon if idle),
    // then loop: new events scheduled by dispatched callbacks shorten the
    // next sleep automatically. An idle run() has nothing left to wait for.
    const std::optional<sim::SimTime> next = sim_.next_time();
    if (!next && horizon == kForever) return;
    const sim::SimTime next_due = next ? std::min(horizon, *next) : horizon;
    const sim::SimTime vnow = wall_virtual_now();
    if (next_due > vnow) std::this_thread::sleep_for(wall_wait(next_due - vnow));
  }
}

}  // namespace spothost::live

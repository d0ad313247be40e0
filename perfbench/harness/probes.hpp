// Price-step probes and the sliced event loop of the traced pass.
//
// A SpotMarket calls its price listeners in subscription order. The provider
// subscribes when a market is added, the MarketWatcher when the first
// scheduler watches the market. A probe subscribed between the two and one
// subscribed after the watcher therefore split every price step into
//   [slice start or previous step's end, before-probe]  provider scan
//   [before-probe, after-probe]                         fan-out + reactions
// The loop around them runs the engine to each price-change time in two
// slices: up to one millisecond before it (no price step inside), then the
// millisecond itself.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "report.hpp"
#include "spothost.hpp"

namespace perfbench {

class StepProbes {
 public:
  explicit StepProbes(SpanRecorder& spans)
      : spans_(spans),
        price_step_(spans.id("cloud.price_step")),
        fanout_(spans.id("sched.fanout")) {}
  // The markets hold pointers to the probes.
  StepProbes(const StepProbes&) = delete;
  StepProbes& operator=(const StepProbes&) = delete;

  /// Subscribes the before-probe to every market of `provider`. Call after
  /// the markets exist and before any scheduler starts. `listeners[m]` is
  /// how many schedulers watch market m; each step of m adds it to
  /// deliveries().
  void subscribe_before(spothost::cloud::CloudProvider& provider,
                        const std::map<std::string, int>& listeners) {
    for (const auto& id : provider.all_markets()) {
      const auto it = listeners.find(id.str());
      before_.push_back(std::make_unique<Before>(*this, it == listeners.end() ? 0 : it->second));
      provider.market(id).subscribe(before_.back().get());
    }
  }

  /// Subscribes the after-probe to every market. Call once every scheduler
  /// has started (and so watches its markets).
  void subscribe_after(spothost::cloud::CloudProvider& provider) {
    for (const auto& id : provider.all_markets()) {
      provider.market(id).subscribe(&after_);
    }
  }

  /// Marks the start of a slice that may contain price steps.
  void begin_slice() { mark_ = Clock::now(); }

  [[nodiscard]] std::uint64_t steps() const noexcept { return steps_; }
  [[nodiscard]] std::uint64_t deliveries() const noexcept { return deliveries_; }

 private:
  class Before final : public spothost::cloud::SpotMarket::PriceListener {
   public:
    Before(StepProbes& owner, int listeners) : owner_(owner), listeners_(listeners) {}
    void on_price(const spothost::cloud::SpotMarket&, double) override {
      const auto now = Clock::now();
      owner_.spans_.leaf(owner_.price_step_, owner_.mark_, now);
      owner_.probe_ = now;
      ++owner_.steps_;
      owner_.deliveries_ += static_cast<std::uint64_t>(listeners_);
    }

   private:
    StepProbes& owner_;
    int listeners_;
  };
  class After final : public spothost::cloud::SpotMarket::PriceListener {
   public:
    explicit After(StepProbes& owner) : owner_(owner) {}
    void on_price(const spothost::cloud::SpotMarket&, double) override {
      const auto now = Clock::now();
      owner_.spans_.leaf(owner_.fanout_, owner_.probe_, now);
      owner_.mark_ = now;
    }

   private:
    StepProbes& owner_;
  };

  SpanRecorder& spans_;
  std::uint32_t price_step_;
  std::uint32_t fanout_;
  std::vector<std::unique_ptr<Before>> before_;
  After after_{*this};
  Clock::time_point mark_{};
  Clock::time_point probe_{};
  std::uint64_t steps_ = 0;
  std::uint64_t deliveries_ = 0;
};

/// Sorted distinct change times of `traces` in (0, horizon]: the instants a
/// trace-replaying market dispatches a price step (the point at t=0 is the
/// initial price, never dispatched).
inline std::vector<spothost::sim::SimTime> change_times(
    const std::vector<const spothost::trace::PriceTrace*>& traces,
    spothost::sim::SimTime horizon) {
  std::vector<spothost::sim::SimTime> times;
  for (const auto* t : traces) {
    for (const auto& p : t->points()) {
      if (p.time > 0 && p.time <= horizon) times.push_back(p.time);
    }
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  return times;
}

/// engine.run_until(horizon), sliced at every time in `times` so that each
/// slice either holds no price step ("simcore.between_steps") or is the
/// single millisecond of one ("simcore.step"). Returns the largest pending()
/// seen at a slice boundary.
inline std::size_t run_sliced(spothost::sim::Engine& engine,
                              const std::vector<spothost::sim::SimTime>& times,
                              spothost::sim::SimTime horizon, SpanRecorder& spans,
                              StepProbes& probes) {
  const std::uint32_t between = spans.id("simcore.between_steps");
  const std::uint32_t step = spans.id("simcore.step");
  std::size_t pending_peak = engine.pending();
  for (const auto t : times) {
    if (t - 1 > engine.now()) {
      Scoped slice(spans, between);
      engine.run_until(t - 1);
    }
    {
      Scoped slice(spans, step);
      probes.begin_slice();
      engine.run_until(t);
    }
    pending_peak = std::max(pending_peak, engine.pending());
  }
  if (horizon > engine.now()) {
    Scoped slice(spans, between);
    engine.run_until(horizon);
  }
  return pending_peak;
}

}  // namespace perfbench

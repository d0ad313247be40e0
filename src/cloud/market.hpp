// Market identity and the price feed for one (region, size) spot market.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "cloud/instance_types.hpp"
#include "simcore/clock.hpp"
#include "trace/price_trace.hpp"

namespace spothost::cloud {

/// A spot market is identified by (region, instance size) — "each server
/// configuration has its own spot market" (Sec. 2.1).
struct MarketId {
  std::string region;
  InstanceSize size = InstanceSize::kSmall;

  bool operator==(const MarketId&) const = default;
  [[nodiscard]] std::string str() const {
    return region + "/" + std::string(to_string(size));
  }
};

struct MarketIdHash {
  std::size_t operator()(const MarketId& m) const noexcept {
    return std::hash<std::string>{}(m.region) * 31u +
           static_cast<std::size_t>(m.size);
  }
};

/// One market, with listeners called on every price change. The
/// CloudProvider owns SpotMarkets and layers instance/revocation logic on
/// top. Two feeding modes share the class:
///
///   * trace mode (the simulation path) — constructed with a pre-loaded
///     PriceTrace; start() replays its change points as clock events.
///   * push mode (the live path) — constructed without a trace; a
///     live::FeedDriver primes the initial price and then stages/commits
///     updates as they arrive from a live::PriceFeed. Committed prices
///     accumulate into an internal PriceTrace so billing (spot_cost) reads
///     the same structure in both modes.
///
/// The push-mode stage/commit split exists for replay parity: staging makes
/// the *queried* price step at exactly the staged timestamp (matching trace
/// mode's right-continuous price_at), even when another event at the same
/// millisecond — scheduled earlier, so dispatched first — asks for the price
/// before the commit callback runs.
class SpotMarket {
 public:
  /// The subscription surface: one virtual call per price step per
  /// subscriber, no std::function dispatch, no capture storage. The two
  /// per-market permanent subscribers are CloudProvider's revocation logic
  /// and the shared MarketWatcher.
  class PriceListener {
   public:
    virtual ~PriceListener() = default;
    /// Called on every committed price change, synchronously, in
    /// subscription order. `market.id()` identifies the market.
    virtual void on_price(const SpotMarket& market, double new_price) = 0;
  };

  /// Trace mode: replays `price_trace` (must be non-empty).
  SpotMarket(sim::Clock& clock, MarketId id, trace::PriceTrace price_trace,
             double on_demand_price_per_hour);

  /// Push mode: no trace; prices arrive via prime()/stage()/commit_staged().
  SpotMarket(sim::Clock& clock, MarketId id, double on_demand_price_per_hour);

  [[nodiscard]] const MarketId& id() const noexcept { return id_; }
  /// Dense position in the owning CloudProvider's all_markets() order,
  /// assigned when the provider adopts the market (0 for a market built
  /// outside a provider). The price-step path keys per-market tables on it,
  /// so a step never hashes the MarketId.
  [[nodiscard]] std::size_t index() const noexcept { return index_; }
  [[nodiscard]] double on_demand_price() const noexcept { return on_demand_price_; }

  /// True if this market is push-fed (no pre-loaded trace).
  [[nodiscard]] bool push_fed() const noexcept { return push_fed_; }

  /// Trace mode: the pre-loaded trace. Push mode: the prices committed so
  /// far (the live billing record). Its end() only advances on commit; use
  /// billable_trace() when about to integrate up to the present.
  [[nodiscard]] const trace::PriceTrace& price_trace() const noexcept { return trace_; }

  /// price_trace() with the validity window extended through `through`
  /// (push mode bills against prices that have held since the last commit).
  /// Trace mode returns the trace unchanged.
  [[nodiscard]] const trace::PriceTrace& billable_trace(sim::SimTime through);

  /// Current spot price (at clock now()). Push mode throws std::logic_error
  /// until prime() has supplied the first price.
  [[nodiscard]] double price() const;

  /// Calls `listener` (not owned; it must outlive the market's price steps)
  /// on every committed price change from the next one on, after the
  /// listeners subscribed before it. A subscription lasts as long as the
  /// market.
  void subscribe(PriceListener* listener);
  /// Subscribed listeners (the provider's own revocation logic counts as one).
  [[nodiscard]] std::size_t observer_count() const noexcept {
    return listeners_.size();
  }

  /// Trace mode: begins replaying price-change events into the clock. Call
  /// once. Push mode: a no-op (the feed driver drives the market instead) —
  /// lets CloudProvider::start() treat both modes uniformly.
  void start();

  // --- push mode (live::FeedDriver's surface) ----------------------------

  /// Sets the initial price without notifying observers — the counterpart
  /// of trace mode's point at t0, which is never dispatched as an event.
  /// Call exactly once, before any commit; throws if re-primed or in trace
  /// mode.
  void prime(double price);

  /// Declares the price that will commit at `at` (>= now). From `at`
  /// onwards price() answers with it even before commit_staged() runs —
  /// see the class comment. At most one update staged at a time.
  void stage(sim::SimTime at, double price);

  /// Commits the staged price at clock now() (>= the staged time): records
  /// it in the billing trace and dispatches observers.
  void commit_staged();

  /// stage(now) + commit_staged(): the immediate-delivery path for feed
  /// updates that are already due when ingested (live tailing).
  void push_price(double price);

 private:
  friend class CloudProvider;  // assigns index_ at adoption

  void schedule_next(sim::SimTime after_time);

  sim::Clock& clock_;
  MarketId id_;
  std::size_t index_ = 0;
  // Trace mode: the replayed trace. Push mode: committed prices so far.
  trace::PriceTrace trace_;
  // This market's read position in its trace. A SpotMarket lives inside one
  // single-threaded engine and its queries move forward with time, so one
  // per-instance cursor makes price()/schedule_next amortized O(1); mutable
  // because price() is logically const (the trace itself is never mutated —
  // cursor state is the reader's, see trace/price_trace.hpp).
  mutable trace::PriceCursor trace_cursor_;
  double on_demand_price_;
  void dispatch(double new_price);

  const bool push_fed_ = false;
  bool primed_ = false;
  bool staged_ = false;
  sim::SimTime staged_at_ = 0;
  double staged_price_ = 0.0;
  double live_price_ = 0.0;  ///< last committed (or primed) push-mode price

  // In subscription order, which is dispatch order (the provider's
  // revocation logic subscribes first and must run first).
  std::vector<PriceListener*> listeners_;
  bool started_ = false;
};

}  // namespace spothost::cloud

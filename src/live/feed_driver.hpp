// FeedDriver: pulls PriceUpdates from a PriceFeed and steps the provider's
// push-fed SpotMarkets, preserving the simulation's event semantics.
//
// Parity is the whole game here. In trace mode the provider schedules, per
// market in registration order, a chain of clock events — each one commits a
// price change (dispatching observers) and then schedules the next. The
// driver reproduces exactly that shape on the push path:
//
//   * start() primes each market with its first update (no observers fire —
//     trace mode never dispatches the t0 point either) and schedules the
//     second as a clock event, walking markets in provider registration
//     order so the (time, schedule-seq) tie-break matches the simulation.
//   * each chain event commits its staged price (observers fire) and only
//     then pulls/schedules the next update — mirroring SpotMarket's
//     "dispatch, then schedule_next" ordering.
//   * an update already due when ingested (live tailing after a stall) is
//     delivered immediately via push_price.
//
// A chain stalls when the feed would block (tail mode, writer behind) and is
// re-armed by pump(); it ends when the feed reports kEnd for its market.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "cloud/provider.hpp"
#include "live/price_feed.hpp"
#include "simcore/clock.hpp"

namespace spothost::live {

class FeedDriver {
 public:
  /// Observes every delivered (committed) update — the serve loop's latency
  /// probe and log hook. Fires after the market's observers.
  using DeliveryHook = std::function<void(const PriceUpdate&)>;

  FeedDriver(sim::Clock& clock, cloud::CloudProvider& provider, PriceFeed& feed);

  void set_delivery_hook(DeliveryHook hook) { hook_ = std::move(hook); }

  /// Pumps the feed once, then primes every push-fed market and schedules
  /// each one's first price-change event. Call once, after the provider's
  /// markets are registered and before running the engine. Throws if a
  /// push-fed market has no update to prime with (replay feeds always do;
  /// in tail mode, pump until the feed has a first price per market first —
  /// see primed_markets()).
  void start();

  /// Ingests new feed data and re-arms stalled chains. Returns the number
  /// of updates ingested.
  std::size_t pump();

  /// True once every chain has consumed its stream to the end.
  [[nodiscard]] bool done() const;
  /// Number of push-fed markets that have a primed price.
  [[nodiscard]] std::size_t primed_markets() const;
  /// Total updates delivered to markets (priming not counted).
  [[nodiscard]] std::uint64_t delivered() const noexcept { return delivered_; }

 private:
  enum class ChainState {
    kIdle,       ///< between pulls (transient)
    kScheduled,  ///< next change sits in the clock's queue
    kStalled,    ///< feed would block; pump() re-arms
    kEnded,      ///< feed exhausted for this market
  };

  struct Chain {
    std::string key;                      ///< feed key = MarketId::str()
    cloud::SpotMarket* market = nullptr;  ///< resolved once, in start()
    ChainState state = ChainState::kIdle;
    bool primed = false;
    /// The last update pulled; while kScheduled, the one the chain's event
    /// commits. Kept here so the event captures only [this, idx].
    PriceUpdate staged{};
  };

  /// Pulls updates for chain `idx` until one is scheduled in the future,
  /// the feed blocks, or the stream ends.
  void advance(std::size_t idx);
  void on_fire(std::size_t idx);

  sim::Clock& clock_;
  cloud::CloudProvider& provider_;
  PriceFeed& feed_;
  DeliveryHook hook_;
  std::vector<Chain> chains_;
  bool started_ = false;
  std::uint64_t delivered_ = 0;
};

}  // namespace spothost::live

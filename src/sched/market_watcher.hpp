// Shared fleet market watcher — layer 1 ("when to move") of the scheduler
// decomposition.
//
// The paper's scheduler reacts to three events (Sec. 3): a spot price step,
// the end of a billing hour, and a revocation warning. Only the first fans
// out across a fleet, so only the first comes through here; a scheduler
// schedules its own hour checks on the clock and takes its own revocation
// warnings from the provider.
//
// A CloudScheduler used to subscribe to every candidate market's price feed
// itself, so a fleet of N schedulers over M markets held N×M provider-side
// subscriptions and every price tick fanned out through N×M independent
// std::function hops. The MarketWatcher subscribes to each provider feed at
// most ONCE — fleet cost is O(M) subscriptions — and hands each price step
// to any number of registered listeners.
//
// Price fan-out is band-routed. Each listener tells the watcher, per
// market, the price band in which a price step is a no-op for it
// (TriggerListener::price_band). A market's interest list is a dense column
// of {band, id} entries in watch order, found by the market's
// SpotMarket::index() (a step hashes no MarketId); one price step is one
// pass over that column that calls only the listeners whose band excludes
// the price they would read. The paper's policies are threshold rules, so
// nearly every listener sits inside its band on nearly every step, and a
// step costs one comparison per listener plus two devirtualizable virtual
// calls per *woken* listener (the provider feed arrives through
// SpotMarket::PriceListener and leaves through TriggerListener).
//
// The watcher re-derives a listener's bands after every price step it
// delivers; a listener whose state also changes elsewhere (timers,
// provider callbacks) calls refresh() itself. A band that is too narrow
// only wakes the listener more often; a stale wide one would skip a
// delivery that matters.
//
// Listeners live in a dense vector indexed by ListenerId (ids are never
// reused); removal nulls the slot and dispatch skips it. Dispatch iterates
// by index with the list length captured up front and re-finds the column
// by market index for every entry, so listeners may register and watch()
// reentrantly mid-dispatch — including a first watch of a market with a
// higher index, which grows (and may move) the table of columns. Listeners
// within one market fire in watch order; identical registrations yield
// identical dispatch order, every run.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "cloud/provider.hpp"

namespace spothost::sched {

/// Edge-triggered threshold-crossing detector: feed it the above/below
/// observation at every price tick; it reports an edge exactly once per
/// crossing. A first observation that is already below the threshold is
/// steady state, not a crossing (a fresh adoption into a calm market must
/// not fire). reset() forgets history — call it when the reference market
/// changes.
class CrossingDetector {
 public:
  enum class Edge { kNone, kUp, kDown };

  Edge observe(bool above) noexcept {
    const bool crossed = above_ ? *above_ != above : above;
    above_ = above;
    if (!crossed) return Edge::kNone;
    return above ? Edge::kUp : Edge::kDown;
  }

  void reset() noexcept { above_.reset(); }

  /// Whether the last observation was above. A fresh detector reads false:
  /// for every later sequence it reports the same edges as one whose last
  /// observation was below.
  [[nodiscard]] bool above() const noexcept { return above_.value_or(false); }

 private:
  std::optional<bool> above_;
};

/// A half-open price interval [lo, hi). As a listener's band for a market,
/// it promises that a price step of that market is a no-op while the
/// market's price lies inside it. The default, empty band (lo >= hi) makes
/// no promise: the listener is woken on every step.
struct PriceBand {
  double lo = 0.0;
  double hi = 0.0;

  [[nodiscard]] constexpr bool contains(double price) const noexcept {
    return price >= lo && price < hi;
  }
  /// Every finite price: the listener never needs a price step.
  [[nodiscard]] static constexpr PriceBand everything() noexcept {
    return {-std::numeric_limits<double>::infinity(),
            std::numeric_limits<double>::infinity()};
  }
  bool operator==(const PriceBand&) const = default;
};

class MarketWatcher : private cloud::SpotMarket::PriceListener {
 public:
  using ListenerId = std::uint64_t;
  inline static constexpr ListenerId kInvalidListener = 0;

  /// The listener surface. Direct interface dispatch — the watcher holds a
  /// raw pointer per listener; no std::function, no capture storage.
  class TriggerListener {
   public:
    virtual ~TriggerListener() = default;
    /// `market`'s spot price stepped to `price`. Listener contract:
    ///  * Delivery is synchronous, inside the provider event that caused it
    ///    — the callback observes the world exactly as the step left it, and
    ///    may issue provider requests, push another price or (un)register
    ///    listeners reentrantly (dispatch tolerates mid-pass mutation).
    ///  * Listeners sharing a market fire in the order they watch()ed it;
    ///    same registrations, same dispatch order, every run.
    ///  * The listener object must stay valid until remove_listener
    ///    returns; after that no further steps are delivered, including
    ///    to recipients the in-flight dispatch has not reached yet.
    virtual void on_price_change(const cloud::MarketId& market, double price) = 0;

    /// Band contract: while the market's price lies in the returned band,
    /// on_price_change for `market` is a no-op — skipping it changes nothing
    /// any later event or output could observe — so the watcher skips it.
    /// Const-pure: a function of the listener's current state alone. The
    /// watcher asks again after each step it delivers; state that changes
    /// elsewhere must be followed by MarketWatcher::refresh. The default
    /// (empty band) wakes the listener on every step, which is always
    /// correct.
    [[nodiscard]] virtual PriceBand price_band(const cloud::MarketId& market) const {
      (void)market;
      return {};
    }
  };

  explicit MarketWatcher(cloud::CloudProvider& provider);
  // Markets hold its address.
  MarketWatcher(const MarketWatcher&) = delete;
  MarketWatcher& operator=(const MarketWatcher&) = delete;

  /// Registers a listener (not owned; see TriggerListener::on_price_change
  /// for the delivery contract).
  ListenerId add_listener(TriggerListener* listener);

  /// Deregisters: no further price steps are delivered. Provider-side feed
  /// subscriptions are kept (they are bounded by the market count and the
  /// watcher typically outlives any one listener).
  void remove_listener(ListenerId id);

  /// Adds `markets` to the set the listener receives price steps for; a
  /// market it already watches is skipped. The underlying provider feed is
  /// subscribed on the first interest in a market, once, no matter how many
  /// listeners watch it afterwards.
  void watch(ListenerId id, const std::vector<cloud::MarketId>& markets);

  /// Re-reads the listener's price band for every market it watches.
  void refresh(ListenerId id);

  /// Provider-side price-feed subscriptions this watcher holds — bounded by
  /// the market count, never by the listener count.
  [[nodiscard]] std::size_t provider_subscriptions() const noexcept {
    return subscriptions_;
  }
  /// Live (registered, not yet removed) listeners.
  [[nodiscard]] std::size_t listener_count() const noexcept {
    return live_listeners_;
  }
  /// Price steps delivered so far: exactly the number of on_price_change
  /// calls made.
  [[nodiscard]] std::uint64_t price_deliveries() const noexcept {
    return price_deliveries_;
  }

 private:
  friend class MarketWatcherTestPeer;

  /// One listener's place in a market's interest column.
  struct Entry {
    PriceBand band;
    ListenerId id = kInvalidListener;
  };
  /// One market's feed and its listeners in watch order; `market` is null
  /// until the market is first watched. Keeps the entries of removed
  /// listeners; dispatch skips them.
  struct Interest {
    const cloud::SpotMarket* market = nullptr;
    std::vector<Entry> entries;
  };
  /// Where a listener sits in one market's column.
  struct Watch {
    std::size_t market = 0;  ///< the market's index into interest_
    std::size_t slot = 0;
  };
  struct Listener {
    TriggerListener* listener = nullptr;  ///< null once removed
    std::vector<Watch> watches;           ///< its markets, in watch order
  };

  [[nodiscard]] bool alive(ListenerId id) const noexcept {
    return id != kInvalidListener && id <= listeners_.size() &&
           listeners_[static_cast<std::size_t>(id - 1)].listener != nullptr;
  }
  /// cloud::SpotMarket::PriceListener — the one shared feed subscription.
  void on_price(const cloud::SpotMarket& market, double new_price) override;
  /// Oracle mode: throws std::logic_error if any stored band of `id`
  /// differs from a fresh price_band().
  void check_bands(ListenerId id) const;

  cloud::CloudProvider& provider_;
  /// Dense listener table indexed by id-1; a removed listener leaves a
  /// null slot (ids are never reused, so no generation counter is needed).
  std::vector<Listener> listeners_;
  std::size_t live_listeners_ = 0;
  /// Interest columns indexed by SpotMarket::index(), grown on the first
  /// watch of a market. Growth may move the columns, so nothing holds a
  /// reference to one across a call that can reach watch().
  std::vector<Interest> interest_;
  std::size_t subscriptions_ = 0;
  std::uint64_t price_deliveries_ = 0;
  /// The test oracle: deliver every price step to every listener, checking
  /// each stored band against a fresh one first. Set only by tests.
  bool deliver_to_all_ = false;
};

}  // namespace spothost::sched

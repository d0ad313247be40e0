// Shared fleet market watcher — layer 1 ("when to move") of the scheduler
// decomposition.
//
// A CloudScheduler used to subscribe to every candidate market's price feed
// itself, so a fleet of N schedulers over M markets held N×M provider-side
// subscriptions and every price tick fanned out through N×M independent
// std::function hops. The MarketWatcher subscribes to each provider feed at
// most ONCE — fleet cost is O(M) subscriptions — and fans typed trigger
// notifications out to any number of registered listeners:
//
//  * kPriceChange  — a watched market's spot price ticked;
//  * kHourBoundary — a billing-hour check the listener asked to be woken
//    for (per-instance hours are listener state, so the watcher only owns
//    the delivery, not the schedule);
//  * kRevocation   — the provider warned an instance the listener armed.
//
// Fan-out is batched for fleet scale: one price step is one pass over the
// market's interest list — no per-service events, no snapshot allocation,
// and since PR 9 no type-erased hops anywhere on the path: the provider
// feed arrives through SpotMarket::PriceListener and leaves through
// TriggerListener — two devirtualizable virtual calls per (tick, listener).
// Listeners live in a dense vector indexed by ListenerId (ids are never
// reused); removal tombstones the slot, dispatch iterates by index with the
// list length captured up front, so listeners may (un)register and watch()
// reentrantly mid-dispatch. Tombstoned ids are swept out of interest lists
// only between dispatches. Listeners within one market fire in registration
// order; identical registration order yields identical dispatch order,
// every run.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cloud/provider.hpp"
#include "simcore/clock.hpp"

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

 private:
  std::optional<bool> above_;
};

class MarketWatcher : private cloud::SpotMarket::PriceListener {
 public:
  using ListenerId = std::uint64_t;
  inline static constexpr ListenerId kInvalidListener = 0;

  enum class TriggerKind : std::uint8_t { kPriceChange, kHourBoundary, kRevocation };

  /// One typed notification. Only the fields of the firing kind are set.
  struct Trigger {
    TriggerKind kind = TriggerKind::kPriceChange;
    cloud::MarketId market{};                            ///< kPriceChange
    double price = 0.0;                                  ///< kPriceChange
    cloud::InstanceId instance = cloud::kInvalidInstance;///< kRevocation
    sim::SimTime t_term = 0;                             ///< kRevocation
  };

  /// The listener surface. Direct interface dispatch — the watcher holds a
  /// raw pointer per listener; no std::function, no capture storage.
  class TriggerListener {
   public:
    virtual ~TriggerListener() = default;
    /// Listener contract:
    ///  * Delivery is synchronous, inside the provider/simulation event that
    ///    caused it — the callback observes the world exactly as the trigger
    ///    left it, and may issue provider requests or (un)register listeners
    ///    reentrantly (dispatch tolerates mid-pass mutation).
    ///  * Listeners sharing a market fire in registration (ListenerId)
    ///    order; same registrations, same dispatch order, every run.
    ///  * The listener object must stay valid until remove_listener
    ///    returns; after that no further triggers are delivered, including
    ///    to recipients the in-flight dispatch has not reached yet.
    virtual void on_trigger(const Trigger& trigger) = 0;
  };

  MarketWatcher(sim::Clock& clock, cloud::CloudProvider& provider);

  /// Registers a listener (not owned; see TriggerListener::on_trigger for
  /// the delivery contract).
  ListenerId add_listener(TriggerListener* listener);

  /// Deregisters: no further triggers are delivered. Provider-side feed
  /// subscriptions are kept (they are bounded by the market count and the
  /// watcher typically outlives any one listener).
  void remove_listener(ListenerId id);

  /// Adds `markets` to the set the listener receives kPriceChange triggers
  /// for. The underlying provider feed is subscribed on the first interest
  /// in a market, once, no matter how many listeners watch it afterwards.
  void watch(ListenerId id, const std::vector<cloud::MarketId>& markets);

  /// Schedules a kHourBoundary trigger for `id` at absolute time `at`.
  /// Returns the event handle — cancel through it.
  sim::EventHandle schedule_hour_tick(ListenerId id, sim::SimTime at);

  /// Routes the provider's revocation warning for `instance` to `id` as a
  /// kRevocation trigger (replaces any previously installed handler).
  ///
  /// The watcher only owns routing; *when* the warning arrives is the
  /// provider's business. Under fault injection (src/faults) the warning may
  /// be delivered late (kWarningDelayed) or collapse onto the termination
  /// instant itself (kWarningDropped) — still strictly before the instance
  /// is torn down, but possibly with `t_term == now`. Listeners must not
  /// assume the full grace window is left when the trigger fires.
  void arm_revocation(ListenerId id, cloud::InstanceId instance);

  /// Provider-side price-feed subscriptions this watcher holds — bounded by
  /// the market count, never by the listener count.
  [[nodiscard]] std::size_t provider_subscriptions() const noexcept {
    return subscribed_.size();
  }
  /// Live (registered, not yet removed) listeners.
  [[nodiscard]] std::size_t listener_count() const noexcept {
    return live_listeners_;
  }

 private:
  [[nodiscard]] bool alive(ListenerId id) const noexcept {
    return id != kInvalidListener && id <= listeners_.size() &&
           listeners_[static_cast<std::size_t>(id - 1)] != nullptr;
  }
  /// cloud::SpotMarket::PriceListener — the one shared feed subscription.
  void on_price(const cloud::SpotMarket& market, double new_price) override {
    on_price_change(market.id(), new_price);
  }
  void on_price_change(const cloud::MarketId& market, double new_price);
  void deliver(ListenerId id, const Trigger& trigger);

  sim::Clock& clock_;
  cloud::CloudProvider& provider_;
  /// Dense listener table indexed by id-1; a removed listener leaves a
  /// null slot (ids are never reused, so no generation counter is needed).
  std::vector<TriggerListener*> listeners_;
  std::size_t live_listeners_ = 0;
  /// Per-market listener ids, in registration order. May contain tombstoned
  /// ids between sweeps; dispatch skips them.
  std::unordered_map<cloud::MarketId, std::vector<ListenerId>, cloud::MarketIdHash>
      interest_;
  std::unordered_map<cloud::MarketId, cloud::SpotMarket::SubscriptionId,
                     cloud::MarketIdHash>
      subscribed_;
  /// Depth of in-flight price dispatches; interest lists are swept only at
  /// depth zero so index-based iteration never sees entries shift.
  int dispatch_depth_ = 0;
};

}  // namespace spothost::sched

#include "sched/market_watcher.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace spothost::sched {

namespace {
// Interest lists shorter than this are never swept: a pass over them is
// cheaper than the bookkeeping.
constexpr std::size_t kSweepFloor = 16;
}  // namespace

MarketWatcher::MarketWatcher(sim::Clock& clock, cloud::CloudProvider& provider)
    : clock_(clock), provider_(provider) {}

MarketWatcher::ListenerId MarketWatcher::add_listener(TriggerListener* listener) {
  if (listener == nullptr) {
    throw std::invalid_argument("MarketWatcher::add_listener: null listener");
  }
  listeners_.push_back(Listener{listener, {}});
  ++live_listeners_;
  return static_cast<ListenerId>(listeners_.size());
}

void MarketWatcher::remove_listener(ListenerId id) {
  if (!alive(id)) return;
  Listener& rec = listeners_[static_cast<std::size_t>(id - 1)];
  // Interest lists keep the tombstoned entries until a dispatch-time sweep;
  // dispatch skips dead entries, so no delivery can happen meanwhile.
  for (const Watch& w : rec.watches) ++w.interest->dead;
  rec.watches.clear();
  rec.listener = nullptr;
  --live_listeners_;
}

void MarketWatcher::watch(ListenerId id, const std::vector<cloud::MarketId>& markets) {
  if (!alive(id)) return;
  for (const auto& market : markets) {
    auto it = interest_.find(market);
    if (it == interest_.end()) {
      // First interest in this market: subscribe the one shared provider
      // feed. Later listeners piggyback on the same subscription.
      cloud::SpotMarket& feed = provider_.market(market);
      it = interest_.emplace(market, Interest{&feed, {}, 0}).first;
      feed.subscribe(static_cast<cloud::SpotMarket::PriceListener*>(this));
    }
    Interest& interest = it->second;
    Listener& rec = listeners_[static_cast<std::size_t>(id - 1)];
    // De-duplicate against the listener's own (short) market list, never
    // the market's whole interest list.
    if (std::any_of(rec.watches.begin(), rec.watches.end(),
                    [&](const Watch& w) { return w.interest == &interest; })) {
      continue;
    }
    rec.watches.push_back(Watch{&interest, interest.entries.size()});
    interest.entries.push_back(Entry{rec.listener->price_band(market), id});
  }
}

void MarketWatcher::refresh(ListenerId id) {
  if (!alive(id)) return;
  const Listener& rec = listeners_[static_cast<std::size_t>(id - 1)];
  for (const Watch& w : rec.watches) {
    const PriceBand band = rec.listener->price_band(w.interest->market->id());
    PriceBand& stored = w.interest->entries[w.slot].band;
    if (!(stored == band)) stored = band;
  }
}

void MarketWatcher::check_bands(ListenerId id) const {
  const Listener& rec = listeners_[static_cast<std::size_t>(id - 1)];
  for (const Watch& w : rec.watches) {
    const cloud::MarketId& market = w.interest->market->id();
    if (!(w.interest->entries[w.slot].band == rec.listener->price_band(market))) {
      throw std::logic_error("MarketWatcher: listener " + std::to_string(id) +
                             " has a stale price band for " + market.str() +
                             " (a state change missed its refresh)");
    }
  }
}

sim::EventHandle MarketWatcher::schedule_hour_tick(ListenerId id, sim::SimTime at) {
  return clock_.at(at, [this, id] {
    Trigger trigger;
    trigger.kind = TriggerKind::kHourBoundary;
    deliver(id, trigger);
  });
}

void MarketWatcher::arm_revocation(ListenerId id, cloud::InstanceId instance) {
  provider_.set_revocation_handler(
      instance, [this, id](cloud::InstanceId warned, sim::SimTime t_term) {
        Trigger trigger;
        trigger.kind = TriggerKind::kRevocation;
        trigger.instance = warned;
        trigger.t_term = t_term;
        deliver(id, trigger);
      });
}

void MarketWatcher::on_price(const cloud::SpotMarket& market, double new_price) {
  const auto it = interest_.find(market.id());
  if (it == interest_.end()) return;
  Interest& interest = it->second;
  Trigger trigger;
  trigger.kind = TriggerKind::kPriceChange;
  trigger.market = market.id();
  trigger.price = new_price;
  // Iteration is by index with the length captured up front: a handler may
  // watch() (grows the same vector — appendees are not part of this step),
  // remove_listener (tombstones — skipped here), add_listener, or push
  // another price step reentrantly, all without invalidating the iteration.
  // No snapshot. Bands are read as the pass reaches them, so a refresh made
  // by an earlier recipient counts.
  ++dispatch_depth_;
  // The price a woken listener reads. Only a delivery can move it (a
  // reentrant push), so it is re-read after each one.
  double price = market.price();
  const std::size_t count = interest.entries.size();
  for (std::size_t i = 0; i < count; ++i) {
    const Entry& entry = interest.entries[i];
    if (!deliver_to_all_ && entry.band.contains(price)) continue;
    const ListenerId id = entry.id;
    if (!alive(id)) continue;
    if (deliver_to_all_) check_bands(id);
    ++price_deliveries_;
    listeners_[static_cast<std::size_t>(id - 1)].listener->on_trigger(trigger);
    refresh(id);
    price = market.price();
  }
  --dispatch_depth_;
  // Sweep tombstones once they dominate, but never under a reentrant
  // dispatch that may still be iterating this list.
  if (dispatch_depth_ == 0 && interest.entries.size() >= kSweepFloor &&
      2 * interest.dead > interest.entries.size()) {
    sweep(interest);
  }
}

void MarketWatcher::sweep(Interest& interest) {
  auto& entries = interest.entries;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (!alive(entries[i].id)) continue;
    if (kept != i) {
      entries[kept] = entries[i];
      for (Watch& w : listeners_[static_cast<std::size_t>(entries[kept].id - 1)].watches) {
        if (w.interest == &interest) w.slot = kept;
      }
    }
    ++kept;
  }
  entries.resize(kept);
  interest.dead = 0;
}

void MarketWatcher::deliver(ListenerId id, const Trigger& trigger) {
  if (!alive(id)) return;
  if (deliver_to_all_) check_bands(id);
  listeners_[static_cast<std::size_t>(id - 1)].listener->on_trigger(trigger);
  refresh(id);
}

}  // namespace spothost::sched

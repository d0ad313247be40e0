#include "sched/market_watcher.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace spothost::sched {

MarketWatcher::MarketWatcher(cloud::CloudProvider& provider) : provider_(provider) {}

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
  // Interest lists keep the removed listener's entries; dispatch skips them.
  Listener& rec = listeners_[static_cast<std::size_t>(id - 1)];
  rec.watches.clear();
  rec.listener = nullptr;
  --live_listeners_;
}

void MarketWatcher::watch(ListenerId id, const std::vector<cloud::MarketId>& markets) {
  if (!alive(id)) return;
  for (const auto& market : markets) {
    // The name lookup happens here, at registration; steps use the index.
    cloud::SpotMarket& feed = provider_.market(market);
    const std::size_t m = feed.index();
    if (m >= interest_.size()) interest_.resize(m + 1);
    Interest& interest = interest_[m];
    if (interest.market == nullptr) {
      // First interest in this market: subscribe the one shared provider
      // feed. Later listeners piggyback on the same subscription.
      interest.market = &feed;
      feed.subscribe(static_cast<cloud::SpotMarket::PriceListener*>(this));
      ++subscriptions_;
    }
    Listener& rec = listeners_[static_cast<std::size_t>(id - 1)];
    // De-duplicate against the listener's own (short) market list, never
    // the market's whole interest list.
    if (std::any_of(rec.watches.begin(), rec.watches.end(),
                    [&](const Watch& w) { return w.market == m; })) {
      continue;
    }
    rec.watches.push_back(Watch{m, interest.entries.size()});
    interest.entries.push_back(Entry{rec.listener->price_band(market), id});
  }
}

void MarketWatcher::refresh(ListenerId id) {
  if (!alive(id)) return;
  const Listener& rec = listeners_[static_cast<std::size_t>(id - 1)];
  for (const Watch& w : rec.watches) {
    Interest& interest = interest_[w.market];
    const PriceBand band = rec.listener->price_band(interest.market->id());
    PriceBand& stored = interest.entries[w.slot].band;
    if (!(stored == band)) stored = band;
  }
}

void MarketWatcher::check_bands(ListenerId id) const {
  const Listener& rec = listeners_[static_cast<std::size_t>(id - 1)];
  for (const Watch& w : rec.watches) {
    const Interest& interest = interest_[w.market];
    const cloud::MarketId& market = interest.market->id();
    if (!(interest.entries[w.slot].band == rec.listener->price_band(market))) {
      throw std::logic_error("MarketWatcher: listener " + std::to_string(id) +
                             " has a stale price band for " + market.str() +
                             " (a state change missed its refresh)");
    }
  }
}

void MarketWatcher::on_price(const cloud::SpotMarket& market, double new_price) {
  // Only markets this watcher subscribed to deliver here, so the column
  // exists. Iteration is by index with the length captured up front, and
  // the column is re-found for every entry: a handler may watch() (grows
  // this column — appendees are not part of this step — or, for a new
  // market, the table of columns, which may move), remove_listener (skipped
  // here), add_listener, or push another price step reentrantly, all
  // without invalidating the iteration. No snapshot. Bands are read as the
  // pass reaches them, so a refresh made by an earlier recipient counts.
  //
  // The price a woken listener reads. Only a delivery can move it (a
  // reentrant push), so it is re-read after each one.
  const std::size_t m = market.index();
  double price = market.price();
  const std::size_t count = interest_[m].entries.size();
  for (std::size_t i = 0; i < count; ++i) {
    const Entry& entry = interest_[m].entries[i];
    if (!deliver_to_all_ && entry.band.contains(price)) continue;
    const ListenerId id = entry.id;
    if (!alive(id)) continue;
    if (deliver_to_all_) check_bands(id);
    ++price_deliveries_;
    listeners_[static_cast<std::size_t>(id - 1)].listener->on_price_change(market.id(),
                                                                          new_price);
    refresh(id);
    price = market.price();
  }
}

}  // namespace spothost::sched

#include "sched/market_watcher.hpp"

#include <algorithm>
#include <stdexcept>

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
  listeners_.push_back(listener);
  ++live_listeners_;
  return static_cast<ListenerId>(listeners_.size());
}

void MarketWatcher::remove_listener(ListenerId id) {
  if (!alive(id)) return;
  listeners_[static_cast<std::size_t>(id - 1)] = nullptr;
  --live_listeners_;
  // Interest lists keep the tombstoned id until a dispatch-time sweep;
  // dispatch skips dead entries, so no delivery can happen meanwhile.
}

void MarketWatcher::watch(ListenerId id, const std::vector<cloud::MarketId>& markets) {
  if (!alive(id)) return;
  for (const auto& market : markets) {
    auto& ids = interest_[market];
    if (std::find(ids.begin(), ids.end(), id) != ids.end()) continue;
    ids.push_back(id);
    if (!subscribed_.contains(market)) {
      // First interest in this market: subscribe the one shared provider
      // feed. Later listeners piggyback on the same subscription.
      const auto sub = provider_.market(market).subscribe(
          static_cast<cloud::SpotMarket::PriceListener*>(this));
      subscribed_.emplace(market, sub);
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

void MarketWatcher::on_price_change(const cloud::MarketId& market, double new_price) {
  const auto it = interest_.find(market);
  if (it == interest_.end()) return;
  Trigger trigger;
  trigger.kind = TriggerKind::kPriceChange;
  trigger.market = market;
  trigger.price = new_price;
  // Iteration is by index with the length captured up front: a handler may
  // watch() (grows the same vector — appendees are not part of this step),
  // remove_listener (tombstones — skipped here), add_listener, or push
  // another price step reentrantly, all without invalidating the iteration.
  // No snapshot.
  ++dispatch_depth_;
  auto& ids = it->second;
  std::size_t dead = 0;
  const std::size_t count = ids.size();
  for (std::size_t i = 0; i < count; ++i) {
    const ListenerId id = ids[i];
    if (!alive(id)) {
      ++dead;
      continue;
    }
    listeners_[static_cast<std::size_t>(id - 1)]->on_trigger(trigger);
  }
  --dispatch_depth_;
  // Sweep tombstones once they dominate, but never under a reentrant
  // dispatch that may still be iterating this list.
  if (dispatch_depth_ == 0 && ids.size() >= kSweepFloor && 2 * dead > ids.size()) {
    std::erase_if(ids, [this](ListenerId id) { return !alive(id); });
  }
}

void MarketWatcher::deliver(ListenerId id, const Trigger& trigger) {
  if (!alive(id)) return;
  listeners_[static_cast<std::size_t>(id - 1)]->on_trigger(trigger);
}

}  // namespace spothost::sched

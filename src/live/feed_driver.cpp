#include "live/feed_driver.hpp"

#include <stdexcept>

namespace spothost::live {

FeedDriver::FeedDriver(sim::Clock& clock, cloud::CloudProvider& provider,
                       PriceFeed& feed)
    : clock_(clock), provider_(provider), feed_(feed) {}

void FeedDriver::start() {
  if (started_) throw std::logic_error("FeedDriver::start called twice");
  started_ = true;
  feed_.pump();
  // Provider registration order, same as CloudProvider::start() walks its
  // trace-fed markets — this fixes the schedule-seq assignment of the first
  // chain events, which the parity contract depends on.
  for (const cloud::MarketId& id : provider_.all_markets()) {
    cloud::SpotMarket& market = provider_.market(id);
    if (market.push_fed()) chains_.push_back(Chain{id.str(), &market});
  }
  for (std::size_t i = 0; i < chains_.size(); ++i) advance(i);
}

void FeedDriver::advance(std::size_t idx) {
  Chain& c = chains_[idx];
  if (c.state == ChainState::kScheduled || c.state == ChainState::kEnded) return;
  PriceUpdate& u = c.staged;
  for (;;) {
    switch (feed_.next(c.key, u)) {
      case PriceFeed::Status::kEnd:
        c.state = ChainState::kEnded;
        if (!c.primed) {
          throw std::runtime_error("FeedDriver: feed has no price for market " +
                                   c.key);
        }
        return;
      case PriceFeed::Status::kWouldBlock:
        c.state = ChainState::kStalled;
        return;
      case PriceFeed::Status::kReady:
        break;
    }
    if (!c.primed) {
      c.market->prime(u.price);
      c.primed = true;
      continue;
    }
    if (u.time <= clock_.now()) {
      // Already due (tail mode catching up after a stall): deliver now.
      c.market->push_price(u.price);
      ++delivered_;
      if (hook_) hook_(u);
      continue;
    }
    c.market->stage(u.time, u.price);
    c.state = ChainState::kScheduled;
    auto fire = [this, idx] { on_fire(idx); };
    static_assert(sim::Callback::stores_inline<decltype(fire)>());
    clock_.at(u.time, fire);
    return;
  }
}

void FeedDriver::on_fire(std::size_t idx) {
  Chain& c = chains_[idx];
  c.state = ChainState::kIdle;
  // Commit (observers fire) before pulling/scheduling the next update —
  // mirrors trace mode's "dispatch(price); schedule_next(time);".
  c.market->commit_staged();
  ++delivered_;
  if (hook_) hook_(c.staged);
  advance(idx);
}

std::size_t FeedDriver::pump() {
  const std::size_t ingested = feed_.pump();
  for (std::size_t i = 0; i < chains_.size(); ++i) {
    if (chains_[i].state == ChainState::kStalled) {
      chains_[i].state = ChainState::kIdle;
      advance(i);
    }
  }
  return ingested;
}

bool FeedDriver::done() const {
  for (const Chain& c : chains_) {
    if (c.state != ChainState::kEnded) return false;
  }
  return true;
}

std::size_t FeedDriver::primed_markets() const {
  std::size_t n = 0;
  for (const Chain& c : chains_) n += c.primed ? 1 : 0;
  return n;
}

}  // namespace spothost::live

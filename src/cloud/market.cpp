#include "cloud/market.hpp"

#include <stdexcept>
#include <vector>

namespace spothost::cloud {

SpotMarket::SpotMarket(sim::Clock& clock, MarketId id,
                       trace::PriceTrace price_trace, double on_demand_price_per_hour)
    : clock_(clock),
      id_(std::move(id)),
      trace_(std::move(price_trace)),
      on_demand_price_(on_demand_price_per_hour) {
  if (trace_.empty()) {
    throw std::invalid_argument("SpotMarket: empty price trace for " + id_.str());
  }
  if (on_demand_price_ <= 0) {
    throw std::invalid_argument("SpotMarket: on-demand price must be > 0");
  }
}

SpotMarket::SpotMarket(sim::Clock& clock, MarketId id,
                       double on_demand_price_per_hour)
    : clock_(clock),
      id_(std::move(id)),
      on_demand_price_(on_demand_price_per_hour),
      push_fed_(true) {
  if (on_demand_price_ <= 0) {
    throw std::invalid_argument("SpotMarket: on-demand price must be > 0");
  }
}

double SpotMarket::price() const {
  const sim::SimTime now = clock_.now();
  if (push_fed_) {
    if (!primed_) {
      throw std::logic_error("SpotMarket::price: live market " + id_.str() +
                             " has no price yet (feed not primed)");
    }
    // A staged update takes effect at its timestamp even before its commit
    // callback runs — this is what makes push-fed price() right-continuous
    // like trace mode's price_at (same-millisecond queries included).
    if (staged_ && now >= staged_at_) return staged_price_;
    return live_price_;
  }
  // Clamp to the trace window so queries exactly at the horizon still answer.
  const sim::SimTime t = std::min(std::max(now, trace_.start()), trace_.end() - 1);
  return trace_.price_at(t, trace_cursor_);
}

const trace::PriceTrace& SpotMarket::billable_trace(sim::SimTime through) {
  if (push_fed_ && trace_.end() < through) trace_.set_end(through);
  return trace_;
}

void SpotMarket::subscribe(PriceListener* listener) {
  if (listener == nullptr) {
    throw std::invalid_argument("SpotMarket::subscribe: null listener");
  }
  listeners_.push_back(listener);
}

void SpotMarket::start() {
  if (started_) throw std::logic_error("SpotMarket::start called twice");
  started_ = true;
  if (push_fed_) return;  // the feed driver drives a push-fed market
  schedule_next(clock_.now());
}

void SpotMarket::prime(double price) {
  if (!push_fed_) {
    throw std::logic_error("SpotMarket::prime: trace-fed market " + id_.str());
  }
  if (primed_) {
    throw std::logic_error("SpotMarket::prime: already primed " + id_.str());
  }
  primed_ = true;
  live_price_ = price;
  trace_.append(clock_.now(), price);
}

void SpotMarket::stage(sim::SimTime at, double price) {
  if (!push_fed_) {
    throw std::logic_error("SpotMarket::stage: trace-fed market " + id_.str());
  }
  if (!primed_) {
    throw std::logic_error("SpotMarket::stage: prime() first " + id_.str());
  }
  if (staged_) {
    throw std::logic_error("SpotMarket::stage: update already staged " + id_.str());
  }
  if (at < clock_.now()) {
    throw std::invalid_argument("SpotMarket::stage: staging in the past " +
                                id_.str());
  }
  staged_ = true;
  staged_at_ = at;
  staged_price_ = price;
}

void SpotMarket::commit_staged() {
  if (!staged_) {
    throw std::logic_error("SpotMarket::commit_staged: nothing staged " +
                           id_.str());
  }
  staged_ = false;
  live_price_ = staged_price_;
  // Record for billing. Two updates inside one millisecond collapse to one
  // point with the later price (append requires strictly increasing times).
  const sim::SimTime at = clock_.now();
  if (!trace_.empty() && at <= trace_.points().back().time) {
    trace_.amend_last(staged_price_);
  } else {
    trace_.append(at, staged_price_);
  }
  dispatch(staged_price_);
}

void SpotMarket::push_price(double price) {
  stage(clock_.now(), price);
  commit_staged();
}

void SpotMarket::schedule_next(sim::SimTime after_time) {
  const auto next = trace_.next_change_after(after_time, trace_cursor_);
  if (!next) return;
  clock_.at(next->time, [this, point = *next] {
    dispatch(point.price);
    schedule_next(point.time);
  });
}

void SpotMarket::dispatch(double new_price) {
  // By index over the count at entry: a listener may subscribe reentrantly,
  // which grows (and may move) the vector, and the newcomer joins from the
  // next step.
  const std::size_t count = listeners_.size();
  for (std::size_t i = 0; i < count; ++i) listeners_[i]->on_price(*this, new_price);
}

}  // namespace spothost::cloud

#include "sched/baselines.hpp"

#include <utility>

#include "cloud/billing.hpp"

namespace spothost::sched {

double on_demand_only_cost(const cloud::CloudProvider& provider,
                           const cloud::MarketId& home_market, sim::SimTime horizon) {
  return cloud::on_demand_cost(provider.od_price(home_market), 0, horizon);
}

SchedulerConfig reactive_config(cloud::MarketId home_market) {
  SchedulerConfig config;
  config.home_market = std::move(home_market);
  config.bid = {.mode = BiddingMode::kReactive};
  config.scope = MarketScope::kSingleMarket;
  return config;
}

SchedulerConfig proactive_config(cloud::MarketId home_market) {
  SchedulerConfig config;
  config.home_market = std::move(home_market);
  config.bid = {.mode = BiddingMode::kProactive, .proactive_multiple = 4.0};
  config.scope = MarketScope::kSingleMarket;
  return config;
}

SchedulerConfig pure_spot_config(cloud::MarketId home_market) {
  SchedulerConfig config = reactive_config(std::move(home_market));
  config.fallback = Fallback::kPureSpot;
  return config;
}

}  // namespace spothost::sched

#include "sched/placement.hpp"

#include <algorithm>
#include <limits>

#include "sched/bidding.hpp"

namespace spothost::sched {

bool qualifies(const cloud::MarketId& market, const PlacementQuery& query,
               double effective_price) {
  if (query.exclude && *query.exclude == market) return false;
  if (std::find(query.avoid.begin(), query.avoid.end(), market) != query.avoid.end()) {
    return false;
  }
  return effective_price < query.max_effective_price;
}

std::optional<cloud::MarketId> best_spot_market(
    const cloud::CloudProvider& provider, const std::vector<cloud::MarketId>& candidates,
    const PlacementQuery& query, StabilityPolicy stability,
    double stability_penalty_weight, sim::SimTime stability_window) {
  std::optional<cloud::MarketId> best;
  double best_score = std::numeric_limits<double>::infinity();
  for (const auto& market : candidates) {
    const double eff = effective_spot_price(provider, market, query.units_needed);
    if (!qualifies(market, query, eff)) continue;
    double score = eff;
    if (stability == StabilityPolicy::kPenalizeVolatility) {
      score += stability_penalty_weight *
               trailing_stddev(provider, market, query.now, stability_window);
    }
    if (score < best_score) {
      best_score = score;
      best = market;
    }
  }
  return best;
}

std::string_view ScopedPlacementPolicy::name() const noexcept { return "scoped"; }

std::vector<cloud::MarketId> ScopedPlacementPolicy::watched_markets(
    const cloud::CloudProvider& provider, const SchedulerConfig& config) const {
  return candidate_markets(provider, config.scope, config.home_market,
                           config.allowed_regions);
}

std::optional<Placement> ScopedPlacementPolicy::choose_spot(
    const cloud::CloudProvider& provider, const SchedulerConfig& config,
    const PlacementQuery& query) const {
  const auto candidates = candidate_markets(provider, config.scope,
                                            config.home_market, config.allowed_regions);
  const auto best =
      best_spot_market(provider, candidates, query, config.stability,
                       config.stability_penalty_weight, config.stability_window);
  if (!best) return std::nullopt;
  return Placement{*best, /*on_demand=*/false,
                   bid_strategy_for(config)->bid_for(provider, config, *best, query.now)};
}

Placement ScopedPlacementPolicy::choose_on_demand(const cloud::CloudProvider& provider,
                                                  const SchedulerConfig& config,
                                                  const PlacementQuery& query) const {
  std::string region =
      query.fallback_region.empty() ? config.home_market.region : query.fallback_region;
  if (config.scope == MarketScope::kMultiRegion) {
    const auto& regions = config.allowed_regions.empty() ? provider.regions()
                                                         : config.allowed_regions;
    region = cheapest_on_demand_region(provider, regions, config.home_market.size);
  }
  return Placement{cloud::MarketId{region, config.home_market.size},
                   /*on_demand=*/true, 0.0};
}

std::shared_ptr<const PlacementPolicy> placement_policy_for(
    const SchedulerConfig& config) {
  if (config.placement) return config.placement;
  static const auto kScoped = std::make_shared<const ScopedPlacementPolicy>();
  return kScoped;
}

}  // namespace spothost::sched

#include "sched/policy_zoo.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "cloud/market.hpp"
#include "sched/bidding.hpp"
#include "trace/features.hpp"

namespace spothost::sched {

// ---------------------------------------------------------------------------
// PortfolioPlacementPolicy
// ---------------------------------------------------------------------------

PortfolioPlacementPolicy::PortfolioPlacementPolicy()
    : PortfolioPlacementPolicy(Params{}) {}

PortfolioPlacementPolicy::PortfolioPlacementPolicy(Params params)
    : params_(params) {
  if (params_.basket_size < 1) {
    throw std::invalid_argument(
        "PortfolioPlacementPolicy: basket_size must be >= 1 (got " +
        std::to_string(params_.basket_size) + ")");
  }
  if (params_.volatility_window <= 0) {
    throw std::invalid_argument(
        "PortfolioPlacementPolicy: volatility_window must be > 0");
  }
  if (params_.rebalance_period <= 0) {
    throw std::invalid_argument(
        "PortfolioPlacementPolicy: rebalance_period must be > 0");
  }
  if (params_.volatility_floor <= 0.0) {
    throw std::invalid_argument(
        "PortfolioPlacementPolicy: volatility_floor must be > 0 (got " +
        std::to_string(params_.volatility_floor) + ")");
  }
}

std::string_view PortfolioPlacementPolicy::name() const noexcept {
  return "portfolio";
}

std::vector<cloud::MarketId> PortfolioPlacementPolicy::watched_markets(
    const cloud::CloudProvider& provider, const SchedulerConfig& config) const {
  return scoped_.watched_markets(provider, config);
}

std::optional<Placement> PortfolioPlacementPolicy::choose_spot(
    const cloud::CloudProvider& provider, const SchedulerConfig& config,
    const PlacementQuery& query) const {
  struct Entry {
    cloud::MarketId market;
    double eff = 0.0;
    double weight = 0.0;
  };
  std::vector<Entry> basket;
  for (const auto& market : candidate_markets(provider, config.scope,
                                              config.home_market,
                                              config.allowed_regions)) {
    const double eff =
        effective_spot_price(provider, market, query.units_needed);
    if (!qualifies(market, query, eff)) continue;
    const double sigma = trailing_stddev(provider, market, query.now,
                                         params_.volatility_window);
    basket.push_back({market, eff, 1.0 / (sigma + params_.volatility_floor)});
  }
  if (basket.empty()) return std::nullopt;

  // Stable-first basket, with fully deterministic tie-breaks.
  std::sort(basket.begin(), basket.end(), [](const Entry& a, const Entry& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    if (a.eff != b.eff) return a.eff < b.eff;
    return a.market.str() < b.market.str();
  });
  if (basket.size() > static_cast<std::size_t>(params_.basket_size)) {
    basket.resize(static_cast<std::size_t>(params_.basket_size));
  }
  double total_weight = 0.0;
  for (const auto& entry : basket) total_weight += entry.weight;

  // Low-discrepancy slot selection: successive rebalance periods (and
  // successive placement salts within one period) land at golden-ratio-
  // spaced fractions of [0, 1), so placements track the normalized weights
  // without any RNG draw.
  constexpr double kGolden = 0.61803398874989485;
  const std::int64_t slot = query.now / params_.rebalance_period +
                            static_cast<std::int64_t>(config.placement_salt);
  const double u = std::fmod(static_cast<double>(slot) * kGolden, 1.0);
  const Entry* pick = &basket.back();
  double cumulative = 0.0;
  for (const auto& entry : basket) {
    cumulative += entry.weight / total_weight;
    if (u < cumulative) {
      pick = &entry;
      break;
    }
  }
  const double bid = bid_strategy_for(config)->bid_for(provider, config,
                                                       pick->market, query.now);
  return Placement{pick->market, /*on_demand=*/false, bid};
}

Placement PortfolioPlacementPolicy::choose_on_demand(
    const cloud::CloudProvider& provider, const SchedulerConfig& config,
    const PlacementQuery& query) const {
  return scoped_.choose_on_demand(provider, config, query);
}

// ---------------------------------------------------------------------------
// RevocationAwarePolicy
// ---------------------------------------------------------------------------

RevocationAwarePolicy::RevocationAwarePolicy()
    : RevocationAwarePolicy(Params{}) {}

RevocationAwarePolicy::RevocationAwarePolicy(Params params) : params_(params) {
  if (params_.feature_window <= 0) {
    throw std::invalid_argument(
        "RevocationAwarePolicy: feature_window must be > 0");
  }
  if (params_.min_history <= 0 || params_.min_history > params_.feature_window) {
    throw std::invalid_argument(
        "RevocationAwarePolicy: min_history must be in (0, feature_window]");
  }
}

std::string_view RevocationAwarePolicy::name() const noexcept {
  return "revocation-aware";
}

std::vector<cloud::MarketId> RevocationAwarePolicy::watched_markets(
    const cloud::CloudProvider& provider, const SchedulerConfig& config) const {
  return scoped_.watched_markets(provider, config);
}

double RevocationAwarePolicy::predicted_ttr_hours(
    const trace::PriceTrace& price_trace, double bid, sim::SimTime now) const {
  if (price_trace.empty() || bid <= 0.0) return 0.0;
  const sim::SimTime to = std::min(now, price_trace.end());
  const sim::SimTime from =
      std::max(price_trace.start(), to - params_.feature_window);
  if (to - from < params_.min_history) return 0.0;
  const auto features = trace::extract_features(price_trace, bid, from, to);
  const double window_hours = sim::to_hours(to - from);
  if (features.excursions_above_reference == 0) return window_hours;
  // Mean calm sojourn between excursions above the bid: time spent below
  // the bid divided by the number of distinct excursions.
  return window_hours * features.fraction_below_reference /
         features.excursions_above_reference;
}

std::optional<Placement> RevocationAwarePolicy::choose_spot(
    const cloud::CloudProvider& provider, const SchedulerConfig& config,
    const PlacementQuery& query) const {
  struct Entry {
    cloud::MarketId market;
    double eff = 0.0;
    double bid = 0.0;
    double ttr_hours = 0.0;
  };
  const auto strategy = bid_strategy_for(config);
  std::optional<Entry> best;
  for (const auto& market : candidate_markets(provider, config.scope,
                                              config.home_market,
                                              config.allowed_regions)) {
    const double eff =
        effective_spot_price(provider, market, query.units_needed);
    if (!qualifies(market, query, eff)) continue;
    Entry entry{market, eff,
                strategy->bid_for(provider, config, market, query.now), 0.0};
    entry.ttr_hours = predicted_ttr_hours(
        provider.market(market).price_trace(), entry.bid, query.now);
    const bool better =
        !best || entry.ttr_hours > best->ttr_hours ||
        (entry.ttr_hours == best->ttr_hours &&
         (entry.eff < best->eff ||
          (entry.eff == best->eff && entry.market.str() < best->market.str())));
    if (better) best = entry;
  }
  if (!best) return std::nullopt;
  return Placement{best->market, /*on_demand=*/false, best->bid};
}

Placement RevocationAwarePolicy::choose_on_demand(
    const cloud::CloudProvider& provider, const SchedulerConfig& config,
    const PlacementQuery& query) const {
  return scoped_.choose_on_demand(provider, config, query);
}

}  // namespace spothost::sched

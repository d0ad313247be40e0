#include "sched/market_selection.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace spothost::sched {

std::string_view to_string(MarketScope scope) noexcept {
  switch (scope) {
    case MarketScope::kSingleMarket: return "single-market";
    case MarketScope::kMultiMarket: return "multi-market";
    case MarketScope::kMultiRegion: return "multi-region";
  }
  return "?";
}

std::string_view to_string(StabilityPolicy policy) noexcept {
  switch (policy) {
    case StabilityPolicy::kIgnore: return "ignore";
    case StabilityPolicy::kPenalizeVolatility: return "penalize-volatility";
  }
  return "?";
}

namespace {

// The one formula behind effective_spot_price and its crossing point.
double effective_price(double price, cloud::InstanceSize size, int units_needed) {
  const int capacity = cloud::type_info(size).capacity_units;
  return price * static_cast<double>(units_needed) / static_cast<double>(capacity);
}

}  // namespace

double effective_spot_price(const cloud::CloudProvider& provider,
                            const cloud::MarketId& market, int units_needed) {
  if (units_needed <= 0) {
    throw std::invalid_argument("effective_spot_price: units_needed must be > 0");
  }
  return effective_price(provider.price(market), market.size, units_needed);
}

double effective_price_crossing(cloud::InstanceSize size, int units_needed,
                                double threshold) {
  if (units_needed <= 0) {
    throw std::invalid_argument(
        "effective_price_crossing: units_needed must be > 0");
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (!(threshold < kInf)) return kInf;  // +inf or NaN: never exceeded
  // Start from the real-number answer, then walk ulp by ulp to where the
  // rounded comparison flips (at most a few steps).
  double p = threshold * static_cast<double>(cloud::type_info(size).capacity_units) /
             static_cast<double>(units_needed);
  while (effective_price(p, size, units_needed) > threshold) {
    p = std::nextafter(p, -kInf);
  }
  while (!(effective_price(p, size, units_needed) > threshold)) {
    p = std::nextafter(p, kInf);
  }
  return p;
}

double effective_on_demand_price(const cloud::CloudProvider& provider,
                                 const std::string& region,
                                 cloud::InstanceSize home_size) {
  return provider.od_price(cloud::MarketId{region, home_size});
}

std::vector<cloud::MarketId> candidate_markets(
    const cloud::CloudProvider& provider, MarketScope scope,
    const cloud::MarketId& home, const std::vector<std::string>& allowed_regions) {
  switch (scope) {
    case MarketScope::kSingleMarket:
      return {home};
    case MarketScope::kMultiMarket:
      return provider.markets_in_region(home.region);
    case MarketScope::kMultiRegion: {
      if (allowed_regions.empty()) return provider.all_markets();
      std::vector<cloud::MarketId> out;
      for (const auto& region : allowed_regions) {
        for (auto& m : provider.markets_in_region(region)) {
          out.push_back(std::move(m));
        }
      }
      return out;
    }
  }
  return {home};
}

double trailing_stddev(const cloud::CloudProvider& provider,
                       const cloud::MarketId& market, sim::SimTime now,
                       sim::SimTime window) {
  const auto& price_trace = provider.market(market).price_trace();
  const sim::SimTime from = std::max(price_trace.start(), now - window);
  const sim::SimTime to = std::max(from + sim::kMinute, now);
  const sim::SimTime clamped_to = std::min(to, price_trace.end());
  if (clamped_to <= from) return 0.0;
  return trace::trace_stddev(price_trace, from, clamped_to);
}

std::string cheapest_on_demand_region(const cloud::CloudProvider& provider,
                                      const std::vector<std::string>& regions,
                                      cloud::InstanceSize size) {
  if (regions.empty()) {
    throw std::invalid_argument("cheapest_on_demand_region: no regions");
  }
  std::string best = regions.front();
  double best_price = effective_on_demand_price(provider, best, size);
  for (const auto& region : regions) {
    const double p = effective_on_demand_price(provider, region, size);
    if (p < best_price) {
      best_price = p;
      best = region;
    }
  }
  return best;
}

}  // namespace spothost::sched

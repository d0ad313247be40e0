// Market selection for single-market, multi-market and multi-region bidding
// (Secs. 4.2, 4.4, 4.5).
//
// The service is one nested VM needing `units_needed` small-units of
// capacity. A multi-market scheduler may pack it onto a larger server and
// amortise the price over the server's capacity, so markets are compared by
// *effective* price = spot price * units_needed / capacity(size).
#pragma once

#include <string>
#include <vector>

#include "cloud/provider.hpp"
#include "simcore/time.hpp"
#include "trace/stats.hpp"

namespace spothost::sched {

enum class MarketScope { kSingleMarket, kMultiMarket, kMultiRegion };

std::string_view to_string(MarketScope scope) noexcept;

/// Whether market selection penalises volatile markets (paper Sec. 8 future
/// work). Replaces the old `bool stability_aware` flag.
enum class StabilityPolicy {
  kIgnore,              ///< rank by effective price alone
  kPenalizeVolatility,  ///< score = eff_price + weight * trailing stddev
};

std::string_view to_string(StabilityPolicy policy) noexcept;

/// Effective $/hr to host the service on `market` at its current spot price.
double effective_spot_price(const cloud::CloudProvider& provider,
                            const cloud::MarketId& market, int units_needed);

/// The lowest raw spot price of a `size` market at which the effective
/// price for `units_needed` exceeds `threshold`: effective_spot_price(...) >
/// threshold holds exactly when the market's price is >= the result. Exact
/// in floating point (the effective price is monotone in the raw price), so
/// a price band built on it flips where the comparison does.
double effective_price_crossing(cloud::InstanceSize size, int units_needed,
                                double threshold);

/// Effective $/hr of the on-demand fallback of the home size in `region`.
double effective_on_demand_price(const cloud::CloudProvider& provider,
                                 const std::string& region,
                                 cloud::InstanceSize home_size);

/// Markets the scheduler may bid in, per scope. For kMultiRegion,
/// `allowed_regions` limits the search (empty = all provider regions).
std::vector<cloud::MarketId> candidate_markets(
    const cloud::CloudProvider& provider, MarketScope scope,
    const cloud::MarketId& home, const std::vector<std::string>& allowed_regions);

/// Trailing price volatility of a market (stddev over [now - window, now)),
/// used by the stability-aware extension (paper Sec. 8 future work).
double trailing_stddev(const cloud::CloudProvider& provider,
                       const cloud::MarketId& market, sim::SimTime now,
                       sim::SimTime window);

/// Region with the lowest on-demand price for `size` among `regions`.
std::string cheapest_on_demand_region(const cloud::CloudProvider& provider,
                                      const std::vector<std::string>& regions,
                                      cloud::InstanceSize size);

}  // namespace spothost::sched

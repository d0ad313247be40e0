// The policy zoo: shipped PlacementPolicy strategies beyond the paper's
// scope-driven default (ScopedPlacementPolicy, sched/placement.hpp).
//
//  * PortfolioPlacementPolicy — index-tracking spreading in the style of
//    Cloud Index Tracking (Shastri & Irwin, arXiv:1809.03110): hold a
//    basket of the k most stable qualifying markets, weighted by inverse
//    trailing price volatility, and rotate the preferred slot
//    deterministically over time.
//  * RevocationAwarePolicy — fault-avoidance provisioning in the style of
//    Alourani & Kshemkalyani: rank markets by predicted time-to-revocation
//    at the bid the scheduler would actually place there, derived from
//    trailing crossing statistics (trace::extract_features).
//
// Both plug in through SchedulerConfig::placement and follow
// the full PlacementPolicy contract (exclude/avoid/price ceiling, const
// purity, no RNG, no wall clock). docs/POLICIES.md is the author's guide;
// bench_ablation_policies places every shipped policy on a cost-vs-
// unavailability frontier.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "sched/placement.hpp"
#include "trace/price_trace.hpp"

namespace spothost::sched {

/// Index-tracking portfolio placement: instead of chasing the single
/// cheapest market, spread placement preference across a basket of the
/// `basket_size` most stable qualifying markets, weighted 1/(sigma + floor)
/// by trailing price volatility. The preferred basket slot advances on a
/// deterministic golden-ratio schedule every `rebalance_period`, so over a
/// month the service's placements track the basket in proportion to each
/// market's weight — predictable cost without a single-market hotspot, and
/// no RNG draws. `SchedulerConfig::placement_salt` offsets the rotation so
/// fleet replicas spread across the basket instead of stampeding one slot
/// (see FleetConfig::stagger_placement).
///
/// The rotation only matters when the scheduler has a reason to move
/// (planned/forced/reverse triggers); the policy never initiates moves.
class PortfolioPlacementPolicy final : public PlacementPolicy {
 public:
  struct Params {
    int basket_size = 3;                          ///< k markets held
    sim::SimTime volatility_window = 3 * sim::kDay;  ///< trailing stddev window
    sim::SimTime rebalance_period = sim::kHour;   ///< slot rotation cadence
    double volatility_floor = 1e-4;  ///< $/hr added to sigma; bounds weights
  };

  /// Default knobs, as documented on Params.
  PortfolioPlacementPolicy();
  /// Validates (throws std::invalid_argument naming the offending knob).
  explicit PortfolioPlacementPolicy(Params params);

  [[nodiscard]] std::string_view name() const noexcept override;
  [[nodiscard]] std::vector<cloud::MarketId> watched_markets(
      const cloud::CloudProvider& provider,
      const SchedulerConfig& config) const override;
  [[nodiscard]] std::optional<Placement> choose_spot(
      const cloud::CloudProvider& provider, const SchedulerConfig& config,
      const PlacementQuery& query) const override;
  [[nodiscard]] Placement choose_on_demand(
      const cloud::CloudProvider& provider, const SchedulerConfig& config,
      const PlacementQuery& query) const override;

  [[nodiscard]] const Params& params() const noexcept { return params_; }

 private:
  Params params_;
  ScopedPlacementPolicy scoped_{};  ///< watch surface + on-demand fallback
};

/// Revocation-predictive placement: among qualifying candidates, pick the
/// market predicted to keep the service longest before the price next
/// exceeds the bid — avoiding revocations beats handling them. The
/// prediction comes from trailing crossing statistics against the bid the
/// configured BidStrategy would place there: mean calm sojourn between
/// excursions above the bid (time below the bid / excursion count over the
/// feature window; a window with no excursion predicts the full window).
/// Ties — every market calm at its bid — fall back to effective price, so
/// with a high proactive bid this degrades gracefully to the paper's
/// cheapest-market rule. Most distinctive with reactive bids (bid = p_on),
/// where crossings are exactly revocations.
class RevocationAwarePolicy final : public PlacementPolicy {
 public:
  struct Params {
    sim::SimTime feature_window = 3 * sim::kDay;  ///< trailing stats window
    /// Below this much committed history the prediction is 0 (unknown) and
    /// ranking falls back to effective price.
    sim::SimTime min_history = sim::kHour;
  };

  /// Default knobs, as documented on Params.
  RevocationAwarePolicy();
  /// Validates (throws std::invalid_argument naming the offending knob).
  explicit RevocationAwarePolicy(Params params);

  [[nodiscard]] std::string_view name() const noexcept override;
  [[nodiscard]] std::vector<cloud::MarketId> watched_markets(
      const cloud::CloudProvider& provider,
      const SchedulerConfig& config) const override;
  [[nodiscard]] std::optional<Placement> choose_spot(
      const cloud::CloudProvider& provider, const SchedulerConfig& config,
      const PlacementQuery& query) const override;
  [[nodiscard]] Placement choose_on_demand(
      const cloud::CloudProvider& provider, const SchedulerConfig& config,
      const PlacementQuery& query) const override;

  /// Predicted hours until the price next exceeds `bid`, from the trailing
  /// window ending at `now`. 0 = no usable history. Exposed for tests.
  [[nodiscard]] double predicted_ttr_hours(const trace::PriceTrace& price_trace,
                                           double bid, sim::SimTime now) const;

  [[nodiscard]] const Params& params() const noexcept { return params_; }

 private:
  Params params_;
  ScopedPlacementPolicy scoped_{};  ///< watch surface + on-demand fallback
};

}  // namespace spothost::sched

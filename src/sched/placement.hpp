// Placement policies — layer 2 ("where to move") of the scheduler
// decomposition.
//
// A PlacementPolicy answers one question: given the provider's current
// prices and a price ceiling, which destination should the service move to?
// A destination is a Placement — market, on-demand flag, and (for spot) the
// bid. CloudScheduler never selects markets itself; it asks the policy, so
// new strategies (portfolio selection, hybrid spot/on-demand splits, ...)
// plug in through SchedulerConfig::placement without touching it.
//
// The default ScopedPlacementPolicy implements the paper's behaviour:
// candidates from the configured MarketScope (Secs. 4.2/4.4/4.5), ranked by
// effective price (optionally stability-penalised), with the on-demand
// fallback in the query's fallback region — or, under kMultiRegion, the
// cheapest allowed region.
//
// Shipped alternatives (portfolio spreading, revocation-predictive ranking)
// live in sched/policy_zoo.hpp. docs/POLICIES.md is the policy author's
// guide: the full contract, determinism rules, and a worked example.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cloud/provider.hpp"
#include "sched/market_selection.hpp"
#include "sched/scheduler_config.hpp"
#include "simcore/time.hpp"

namespace spothost::sched {

/// A migration destination: where, on what billing mode, at what bid.
struct Placement {
  cloud::MarketId market{};
  bool on_demand = false;
  double bid = 0.0;  ///< spot only
};

/// Everything situational a policy may need; config holds the rest.
struct PlacementQuery {
  /// Capacity the service needs, in small-units.
  int units_needed = 1;
  /// Spot destinations at or above this effective $/hr do not qualify.
  double max_effective_price = 0.0;
  /// Market to exclude (the one currently held, when on spot).
  std::optional<cloud::MarketId> exclude;
  /// Markets that recently failed allocation (injected capacity faults):
  /// the fault-recovery retry chain grows this list so each retry falls
  /// back to the next-cheapest market, then on-demand when none remain.
  std::vector<cloud::MarketId> avoid{};
  /// Region of the on-demand fallback (the current region, else home).
  std::string fallback_region;
  sim::SimTime now = 0;
};

/// The spot-candidate filter every shipped policy applies: `market`, at
/// `effective_price`, qualifies when the query neither excludes nor avoids
/// it and the price is strictly below the query's ceiling.
[[nodiscard]] bool qualifies(const cloud::MarketId& market, const PlacementQuery& query,
                             double effective_price);

/// The qualifying candidate with the lowest score, or nullopt. The score is
/// the effective price, plus `stability_penalty_weight` × the trailing
/// price stddev over `stability_window` under kPenalizeVolatility. Of equal
/// scores, the earliest candidate wins.
[[nodiscard]] std::optional<cloud::MarketId> best_spot_market(
    const cloud::CloudProvider& provider, const std::vector<cloud::MarketId>& candidates,
    const PlacementQuery& query, StabilityPolicy stability,
    double stability_penalty_weight, sim::SimTime stability_window);

/// Strategy interface for destination selection (layer 2 of the scheduler).
///
/// Contract for implementers:
///  * Policies are immutable and shared (held by shared_ptr<const ...>): a
///    single instance may serve many schedulers across threads, so all three
///    methods must be const-pure — derive everything from the arguments.
///  * choose_spot must honour every field of the query (`exclude`, `avoid`,
///    the price ceiling); the scheduler relies on that for hysteresis and
///    fault fallback. Returning nullopt means "no spot market qualifies" and
///    routes the decision to choose_on_demand.
///  * choose_on_demand must always return a valid placement — it is the end
///    of every fallback chain.
///  * watched_markets bounds the trigger surface: the scheduler only reacts
///    to price feeds listed here (plus the home market), so a policy that
///    selects from markets it does not watch will miss its own triggers.
class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  /// Stable policy name, for logs and bench labels.
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Markets whose price feed the scheduler should watch for triggers.
  /// The home market is always watched in addition to these.
  [[nodiscard]] virtual std::vector<cloud::MarketId> watched_markets(
      const cloud::CloudProvider& provider, const SchedulerConfig& config) const = 0;

  /// Best qualifying spot destination, or nullopt if no market beats the
  /// ceiling. A returned placement has on_demand == false and a live bid.
  [[nodiscard]] virtual std::optional<Placement> choose_spot(
      const cloud::CloudProvider& provider, const SchedulerConfig& config,
      const PlacementQuery& query) const = 0;

  /// The on-demand fallback destination (always exists).
  [[nodiscard]] virtual Placement choose_on_demand(
      const cloud::CloudProvider& provider, const SchedulerConfig& config,
      const PlacementQuery& query) const = 0;
};

/// The paper's scope-driven selection: single-market, multi-market
/// effective-price, or multi-region (Secs. 4.2, 4.4, 4.5).
class ScopedPlacementPolicy final : public PlacementPolicy {
 public:
  [[nodiscard]] std::string_view name() const noexcept override;

  [[nodiscard]] std::vector<cloud::MarketId> watched_markets(
      const cloud::CloudProvider& provider,
      const SchedulerConfig& config) const override;

  [[nodiscard]] std::optional<Placement> choose_spot(
      const cloud::CloudProvider& provider, const SchedulerConfig& config,
      const PlacementQuery& query) const override;

  [[nodiscard]] Placement choose_on_demand(const cloud::CloudProvider& provider,
                                           const SchedulerConfig& config,
                                           const PlacementQuery& query) const override;
};

/// The policy a config selects: config.placement if set, else a shared
/// immutable ScopedPlacementPolicy.
std::shared_ptr<const PlacementPolicy> placement_policy_for(const SchedulerConfig& config);

}  // namespace spothost::sched

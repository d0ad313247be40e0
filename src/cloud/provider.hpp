// The infrastructure cloud: markets, instance allocation, spot revocation
// with the two-minute grace warning, and billing.
//
// Semantics reproduced from Sec. 2.1:
//  * a spot request names a bid; it is granted only if the price at grant
//    time is at or below the bid (allocation itself takes minutes — Table 1);
//  * when the spot price rises above the bid, the provider issues a warning
//    and forcibly terminates the instance `grace` later (default 120 s);
//  * billing per cloud/billing.hpp.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cloud/billing.hpp"
#include "cloud/market.hpp"
#include "simcore/clock.hpp"
#include "simcore/rng.hpp"

namespace spothost::cloud {

using InstanceId = std::uint64_t;
inline constexpr InstanceId kInvalidInstance = 0;

enum class InstanceState { kPending, kRunning, kWarned, kTerminated };

/// Why a server request failed at grant time.
enum class AllocFailure : std::uint8_t {
  kPriceAboveBid,        ///< spot price exceeded the bid when allocation completed
  kInsufficientCapacity, ///< injected capacity error (faults::FaultInjector)
};

/// Mean/CV of allocation latency per region, calibrated to Table 1.
struct AllocationLatency {
  double on_demand_mean_s = 94.85;
  double on_demand_cv = 0.25;
  double spot_mean_s = 281.47;
  double spot_cv = 0.30;
};

struct Instance {
  InstanceId id = kInvalidInstance;
  MarketId market;
  BillingMode mode = BillingMode::kOnDemand;
  double bid = 0.0;  ///< spot only
  InstanceState state = InstanceState::kPending;
  sim::SimTime requested_at = 0;
  sim::SimTime launch = 0;            ///< valid once running
  sim::SimTime termination_time = 0;  ///< valid once warned
  std::uint64_t owner = kNoOwner;     ///< see BillingRecord::owner
};

class CloudProvider : private SpotMarket::PriceListener {
 public:
  using ReadyCallback = std::function<void(InstanceId)>;
  using FailCallback = std::function<void(AllocFailure)>;
  /// Revocation warning: fired when the price crosses the bid; the instance
  /// is forcibly terminated at `termination_time` (= warning time + grace).
  using RevocationHandler = std::function<void(InstanceId, sim::SimTime termination_time)>;

  CloudProvider(sim::Clock& clock, const sim::RngFactory& rng_factory,
                sim::SimTime grace_period = 120 * sim::kSecond);

  /// Registers a trace-fed market. Must be called before start().
  void add_market(MarketId id, trace::PriceTrace price_trace, double od_price);

  /// Registers a push-fed (live) market: no trace — a live::FeedDriver
  /// primes and steps its price instead. Must be called before start();
  /// start() skips push-fed markets. Mixing trace-fed and push-fed markets
  /// in one provider is allowed.
  void add_live_market(MarketId id, double od_price);

  /// Overrides a region's allocation latency profile (defaults: Table 1).
  void set_allocation_latency(const std::string& region, AllocationLatency latency);
  [[nodiscard]] AllocationLatency allocation_latency(const std::string& region) const;

  /// Begins replaying all trace-fed market price feeds (push-fed markets
  /// are driven by their feed). Call once, before running.
  void start();

  [[nodiscard]] SpotMarket& market(const MarketId& id);
  [[nodiscard]] const SpotMarket& market(const MarketId& id) const;
  [[nodiscard]] bool has_market(const MarketId& id) const;
  [[nodiscard]] std::vector<MarketId> all_markets() const;
  [[nodiscard]] std::vector<MarketId> markets_in_region(const std::string& region) const;
  [[nodiscard]] std::vector<std::string> regions() const;

  [[nodiscard]] double price(const MarketId& id) const { return market(id).price(); }
  [[nodiscard]] double od_price(const MarketId& id) const {
    return market(id).on_demand_price();
  }

  /// Requests an on-demand server; `on_ready` fires after allocation latency.
  /// `on_fail` (optional) receives injected capacity errors; requests without
  /// one are never capacity-faulted (the failure would be unobservable).
  InstanceId request_on_demand(const MarketId& id, ReadyCallback on_ready,
                               FailCallback on_fail = {});

  /// Requests a spot server at `bid`; `on_fail` fires with the reason if the
  /// price exceeds the bid when allocation completes, or when the fault
  /// injector raises an insufficient-capacity error at grant time.
  InstanceId request_spot(const MarketId& id, double bid, ReadyCallback on_ready,
                          FailCallback on_fail);

  /// Cancels a still-pending request. No-op if it already completed.
  void cancel_request(InstanceId id);

  /// Tags `id` with an opaque owner for cost attribution; the tag is copied
  /// into the BillingRecord when the lease completes. Call right after the
  /// request (requests return the id synchronously), or any time before
  /// termination. Re-tagging overwrites.
  void set_instance_owner(InstanceId id, std::uint64_t owner);

  /// Installs the revocation-warning handler for a running spot instance.
  void set_revocation_handler(InstanceId id, RevocationHandler handler);

  /// Customer-initiated termination (bills the final partial hour).
  void terminate(InstanceId id);

  [[nodiscard]] const Instance& instance(InstanceId id) const;
  [[nodiscard]] sim::SimTime grace_period() const noexcept { return grace_; }

  /// Bills all still-running/pending instances as customer-terminated at
  /// `at`. Call once when the experiment horizon is reached.
  void finalize(sim::SimTime at);

  [[nodiscard]] const BillingLedger& ledger() const noexcept { return ledger_; }

 private:
  struct Pending {
    ReadyCallback on_ready;
    FailCallback on_fail;
    sim::EventHandle event;
    bool delayed = false;  ///< an injected allocation timeout already fired
  };

  void adopt_market(MarketId id, std::unique_ptr<SpotMarket> market_ptr);
  /// SpotMarket::PriceListener — one virtual hop per price step, replacing a
  /// per-market std::function that captured the MarketId by value.
  void on_price(const SpotMarket& market, double new_price) override {
    on_price_change(market.id(), new_price);
  }
  void on_price_change(const MarketId& id, double new_price);
  void complete_grant(InstanceId id);
  void complete_lease(Instance& inst, TerminationCause cause, sim::SimTime end);
  Instance& instance_mut(InstanceId id);
  /// Removes a spot instance leaving the kRunning state from its market's
  /// running-spot index: O(log n).
  void drop_running_spot(const Instance& inst);

  sim::Clock& clock_;
  const sim::RngFactory& rng_factory_;
  sim::SimTime grace_;
  bool started_ = false;

  std::unordered_map<MarketId, std::unique_ptr<SpotMarket>, MarketIdHash> markets_;
  std::vector<MarketId> market_order_;  // deterministic iteration order
  std::unordered_map<std::string, AllocationLatency> latency_by_region_;
  mutable std::unordered_map<std::string, std::unique_ptr<sim::RngStream>> latency_rng_;

  std::unordered_map<InstanceId, Instance> instances_;
  /// Running spot instances per market as (bid, id), lowest bid first, so a
  /// price step visits only the instances it revokes — a prefix — and
  /// never the rest of the market. Revocation order is fixed by sorting the
  /// affected ids.
  std::unordered_map<MarketId, std::set<std::pair<double, InstanceId>>, MarketIdHash>
      running_spot_;
  std::unordered_map<InstanceId, Pending> pending_;
  std::unordered_map<InstanceId, RevocationHandler> revocation_handlers_;
  InstanceId next_instance_ = 1;
  BillingLedger ledger_;
};

}  // namespace spothost::cloud

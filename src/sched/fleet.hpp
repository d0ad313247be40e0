// Fleet hosting: many always-on services in one cloud, each driven by its
// own CloudScheduler instance.
//
// The paper evaluates one service; a real operator (the SpotCheck-style
// derivative cloud it cites) runs a fleet. A fleet changes the availability
// question: a market spike revokes *every* spot server in that market at
// once, so per-service unavailability understates user-visible risk. The
// FleetScheduler runs N services — optionally spread across home markets —
// and reports correlated-outage statistics: fraction of time any service is
// down, peak number of simultaneously-down services, and the fleet bill.
//
// All schedulers share one MarketWatcher, so the provider sees one price
// subscription per market regardless of fleet size (O(M), not O(N×M)).
// Per-service state lives in dense arenas (exec/arena.hpp) indexed by the
// service number — at fleet scale (100k-1M services, bench_fleet_scale) the
// contiguous layout matters as much as the event-queue asymptotics.
#pragma once

#include <memory>
#include <vector>

#include "exec/arena.hpp"
#include "sched/market_watcher.hpp"
#include "sched/scheduler.hpp"
#include "workload/service.hpp"

namespace spothost::sched {

struct FleetConfig {
  /// Template applied to every service; home_market may be overridden
  /// per-service via `home_markets`.
  SchedulerConfig service_template{};
  int num_services = 4;
  /// Optional per-service home markets (round-robin if smaller than the
  /// fleet; empty = all services use the template's home market).
  std::vector<cloud::MarketId> home_markets{};
  /// Give service i placement_salt = i, so rotation-based placement
  /// policies (PortfolioPlacementPolicy) spread the fleet's replicas across
  /// their basket instead of stampeding one slot. Off by default: every
  /// service keeps the template's salt, byte-identical to older fleets.
  bool stagger_placement = false;
};

struct FleetMetrics {
  int services = 0;
  double total_cost = 0.0;            ///< raw fleet bill ($)
  double attributed_cost = 0.0;       ///< pro-rated by packing share ($)
  double baseline_od_cost = 0.0;      ///< fleet-wide on-demand-only cost ($)
  double normalized_cost_pct = 0.0;

  double mean_unavailability_pct = 0.0;  ///< average over services
  double worst_unavailability_pct = 0.0;
  /// Fraction of the horizon during which >= 1 service was down — the
  /// "someone is paging" metric.
  double any_down_pct = 0.0;
  /// Peak number of simultaneously-down services (revocation correlation).
  int max_concurrent_down = 0;
  int total_forced = 0;
  int total_planned = 0;
  int total_reverse = 0;
};

class FleetScheduler {
 public:
  /// Builds `config.num_services` services and schedulers against the
  /// provider. Call start() before running the simulation and finalize()
  /// after; then read metrics(). Every scheduler is owner-tagged with its
  /// service index so metrics() can pro-rate each lease by the owning
  /// service's capacity need.
  FleetScheduler(sim::Clock& clock, cloud::CloudProvider& provider,
                 FleetConfig config, const sim::RngFactory& rng_factory);

  void start();
  void finalize(sim::SimTime horizon);

  [[nodiscard]] FleetMetrics metrics(sim::SimTime horizon) const;

  [[nodiscard]] const workload::AlwaysOnService& service(int index) const;
  [[nodiscard]] const CloudScheduler& scheduler(int index) const;
  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(schedulers_.size());
  }
  /// The trigger layer shared by every scheduler in the fleet.
  [[nodiscard]] const MarketWatcher& watcher() const noexcept { return *watcher_; }

 private:
  sim::Clock& clock_;
  cloud::CloudProvider& provider_;
  // Destruction order (reverse of declaration): schedulers first — they
  // deregister from the watcher and reference their service — then the
  // services, then the shared watcher.
  std::unique_ptr<MarketWatcher> watcher_;
  // Dense per-service state: one contiguous slab each for services and
  // schedulers instead of 2N heap nodes (exec/arena.hpp). Index i is one
  // service's row across both arenas.
  exec::FixedArena<workload::AlwaysOnService> services_;
  exec::FixedArena<CloudScheduler> schedulers_;
};

/// Overlap statistics over per-service outage interval lists: returns
/// {time with >= 1 down, peak simultaneous-down count} over [0, horizon).
struct OutageOverlap {
  sim::SimTime any_down = 0;
  int max_concurrent = 0;
};
OutageOverlap compute_outage_overlap(
    const std::vector<std::vector<workload::OutageRecord>>& per_service,
    sim::SimTime horizon);

}  // namespace spothost::sched

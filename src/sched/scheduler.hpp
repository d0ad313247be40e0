// The cloud scheduler (Sec. 3): hosts an always-on service on spot servers,
// migrating between spot and on-demand servers with the paper's three
// migration classes (forced / planned / reverse).
//
// The scheduler is a thin state machine composing three layers:
//
//  * MarketWatcher  (sched/market_watcher.hpp) — *when* to move: price
//    ticks, billing-hour boundaries, and revocation warnings arrive as
//    typed triggers. A watcher can be shared by a whole fleet, holding one
//    provider subscription per market however many schedulers listen.
//  * PlacementPolicy (sched/placement.hpp) — *where* to move: destination
//    market, billing mode, and bid. The scope-driven default reproduces the
//    paper's single/multi-market/multi-region selection; custom policies
//    plug in via SchedulerConfig::placement.
//  * MigrationEngine (sched/migration_engine.hpp) — *how* to move: the
//    forced / planned / reverse mechanics, driving the VM mechanism models
//    and instance lifecycle, reporting back through MigrationHost.
//
// What remains here is the paper's *decision logic*: the state machine
// (acquiring / on-spot / on-demand / down), edge-triggered price-crossing
// detection, hour-end planned timing, reverse hour checks, spike
// cancellation, and the pure-spot baseline (Fig. 11) where a revocation
// simply leaves the service down until the market price returns.
//
// Observability: every trigger and migration phase is emitted as an
// obs::TraceEvent. The events always feed the scheduler's own CounterSink —
// the backing store stats() is derived from — and additionally fan out to
// any tracer attached to the Simulation (Simulation::set_tracer).
#pragma once

#include <memory>
#include <optional>

#include "cloud/provider.hpp"
#include "obs/counter_sink.hpp"
#include "sched/bidding.hpp"
#include "sched/market_selection.hpp"
#include "sched/market_watcher.hpp"
#include "sched/migration_engine.hpp"
#include "sched/placement.hpp"
#include "sched/scheduler_config.hpp"
#include "simcore/rng.hpp"
#include "simcore/clock.hpp"
#include "virt/mechanisms.hpp"
#include "workload/endpoint.hpp"

namespace spothost::sched {

class CloudScheduler : private MigrationHost,
                       private MarketWatcher::TriggerListener {
 public:
  enum class State { kAcquiring, kOnSpot, kOnDemand, kDown };

  /// Standalone scheduler: owns a private MarketWatcher. `clock` is the
  /// narrow scheduling interface (a Simulation&, implicitly) — the scheduler
  /// never touches the engine beyond it.
  CloudScheduler(sim::Clock& clock, cloud::CloudProvider& provider,
                 workload::ServiceEndpoint& service, SchedulerConfig config,
                 sim::RngStream timing_rng);

  /// Fleet composition: listens on a shared MarketWatcher, so N schedulers
  /// over M markets cost O(M) provider subscriptions instead of O(N×M).
  /// The watcher must outlive the scheduler.
  CloudScheduler(sim::Clock& clock, cloud::CloudProvider& provider,
                 MarketWatcher& watcher, workload::ServiceEndpoint& service,
                 SchedulerConfig config, sim::RngStream timing_rng);

  ~CloudScheduler() override;

  /// Kicks off initial acquisition. Call once before running the simulation.
  void start();

  /// Closes service accounting at the horizon. Call after run_until(horizon)
  /// and before reading availability. (Provider finalization is separate.)
  void finalize(sim::SimTime horizon);

  [[nodiscard]] State state() const noexcept { return state_; }
  /// Aggregate view derived on demand from the trace-event counters; by
  /// construction it can never disagree with an attached trace sink.
  [[nodiscard]] SchedulerStats stats() const { return scheduler_stats_from(counters_); }
  /// The raw per-event-kind counters backing stats().
  [[nodiscard]] const obs::CounterSink& counters() const noexcept { return counters_; }
  [[nodiscard]] const SchedulerConfig& config() const noexcept { return config_; }
  [[nodiscard]] const virt::VmSpec& vm_spec() const noexcept { return spec_; }
  [[nodiscard]] cloud::InstanceId current_instance() const noexcept {
    return holding_ ? holding_->id : cloud::kInvalidInstance;
  }
  /// The trigger layer this scheduler listens on (owned or shared).
  [[nodiscard]] const MarketWatcher& watcher() const noexcept { return watcher_; }
  /// The destination-selection strategy in effect.
  [[nodiscard]] const PlacementPolicy& placement() const noexcept { return *placement_; }
  [[nodiscard]] const BidStrategy& bid_strategy() const noexcept { return *bidding_; }

  /// Capacity the hosted endpoint needs, in small-units (after any
  /// override) — the basis for effective-price packing and attribution.
  [[nodiscard]] int units_needed() const;

  /// Tags every instance this scheduler acquires from now on with `owner`
  /// in the provider's billing ledger, so fleet cost attribution can
  /// pro-rate each lease by the owning service's capacity need.
  void set_owner_tag(std::uint64_t owner);

 private:
  CloudScheduler(sim::Clock& clock, cloud::CloudProvider& provider,
                 std::unique_ptr<MarketWatcher> owned_watcher,
                 MarketWatcher* shared_watcher, workload::ServiceEndpoint& service,
                 SchedulerConfig config, sim::RngStream timing_rng);

  struct Holding {
    cloud::InstanceId id = cloud::kInvalidInstance;
    cloud::MarketId market;
    bool on_demand = false;
    /// Proactive spot holdings only: the lowest price of `market` at which
    /// the effective spot price exceeds p_on (effective_price_crossing) —
    /// where price_band flips.
    double crossing_price = 0.0;
  };

  // --- triggers (MarketWatcher listener) ------------------------------
  /// MarketWatcher::TriggerListener — direct interface delivery; no
  /// per-scheduler std::function on the price-tick path.
  void on_trigger(const MarketWatcher::Trigger& trigger) override;
  /// The prices at which on_price_change(market) would do nothing, derived
  /// from state alone (see the definition for the rules).
  [[nodiscard]] PriceBand price_band(const cloud::MarketId& market) const override;
  void on_price_change(const cloud::MarketId& market, double new_price);
  void on_hour_check();

  // --- acquisition ----------------------------------------------------
  void acquire_initial();
  /// Fault-recovery ladder for injected capacity failures while acquiring:
  /// bounded backoff retries walking the avoid-list fallback chain
  /// (next-cheapest spot market, then on-demand), then graceful degradation
  /// (slow polling at the backoff cap) or give-up per config_.retry.
  void on_acquire_capacity_failed(const cloud::MarketId& market, bool was_spot);

  // --- planned / reverse decision logic --------------------------------
  void maybe_schedule_planned();
  void cancel_scheduled_planned();
  void begin_planned();
  void begin_reverse(const Placement& target);
  void schedule_hour_check();

  // --- pure spot --------------------------------------------------------
  void pure_spot_reacquire();

  // --- helpers ----------------------------------------------------------
  [[nodiscard]] double od_threshold() const;  ///< p_on comparator in current region
  [[nodiscard]] PlacementQuery placement_query(double threshold) const;
  [[nodiscard]] sim::SimTime planned_lead() const;
  [[nodiscard]] sim::SimTime reverse_lead() const;
  [[nodiscard]] sim::SimTime next_instance_hour_boundary() const;

  // --- MigrationHost (the engine's view of this scheduler) --------------
  [[nodiscard]] cloud::InstanceId source_instance() const noexcept override {
    return holding_ ? holding_->id : cloud::kInvalidInstance;
  }
  [[nodiscard]] cloud::MarketId source_market() const override {
    return holding_ ? holding_->market : config_.home_market;
  }
  void adopt(cloud::InstanceId instance, const cloud::MarketId& market,
             bool on_demand) override;
  void on_forced_begin() override;
  void on_source_lost() override;
  void on_source_released() override;
  void on_voluntary_dest_failed(virt::MigrationClass cls) override;
  void on_revocation_warning(cloud::InstanceId instance, sim::SimTime t_term) override;
  void refresh_price_bands() override { watcher_.refresh(listener_); }

  /// Feeds the event into counters_ (the stats backing store) and forwards
  /// it to the clock's tracer, if one is attached.
  void trace(obs::TraceEvent event) override;
  [[nodiscard]] obs::TraceEvent trace_event(obs::EventKind kind,
                                            std::uint8_t code) const override;

  sim::Clock& clock_;
  cloud::CloudProvider& provider_;
  workload::ServiceEndpoint& service_;
  SchedulerConfig config_;
  sim::RngStream rng_;
  virt::VmSpec spec_;
  std::unique_ptr<MarketWatcher> owned_watcher_;  ///< standalone mode only
  MarketWatcher& watcher_;
  std::shared_ptr<const PlacementPolicy> placement_;
  std::shared_ptr<const BidStrategy> bidding_;
  std::unique_ptr<MigrationEngine> engine_;
  MarketWatcher::ListenerId listener_ = MarketWatcher::kInvalidListener;

  State state_ = State::kAcquiring;
  bool service_live_ = false;
  std::optional<Holding> holding_;
  sim::EventHandle planned_begin_event_;
  sim::EventHandle hour_check_event_;
  cloud::InstanceId pending_acquire_ = cloud::kInvalidInstance;
  obs::CounterSink counters_;
  // --- fault-recovery state (reset on every adopt) ----------------------
  int acquire_attempts_ = 0;  ///< capacity-failed acquisitions this episode
  /// Markets that capacity-failed this episode; placement skips them so each
  /// retry walks to the next-cheapest market and finally on-demand.
  std::vector<cloud::MarketId> avoid_markets_;
  bool degraded_acquire_ = false;  ///< slow-poll degraded mode announced
  /// Edge-triggered crossings of the on-demand threshold, relative to the
  /// adopted market. Reset whenever a new instance is adopted.
  CrossingDetector crossing_;
  /// Ledger attribution tag for every instance this scheduler requests
  /// (kNoOwner = untagged, the standalone default).
  std::uint64_t owner_tag_ = cloud::kNoOwner;
};

}  // namespace spothost::sched

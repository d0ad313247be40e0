// The cloud scheduler (Sec. 3): hosts an always-on service on spot servers,
// migrating between spot and on-demand servers with the paper's three
// migration classes (forced / planned / reverse).
//
// The scheduler is a thin state machine composing three layers:
//
//  * MarketWatcher  (sched/market_watcher.hpp) — *when* to move: price
//    steps, the one event that fans out across a fleet. The watcher is
//    shared by every scheduler built on it, holding one provider
//    subscription per market however many schedulers listen. The other two
//    events arrive directly: the scheduler schedules its billing-hour
//    checks on the clock and installs its own revocation handlers with the
//    provider.
//  * PlacementPolicy (sched/placement.hpp) — *where* to move: destination
//    market, billing mode, and bid. The scope-driven default reproduces the
//    paper's single/multi-market/multi-region selection; custom policies
//    plug in via SchedulerConfig::placement.
//  * MigrationEngine (sched/migration_engine.hpp) — *how* to move: the
//    forced / planned / reverse mechanics, driving the VM mechanism models
//    and instance lifecycle. The scheduler holds it by value and makes it a
//    friend; it reports back through the scheduler's private hooks.
//
// What remains here is the paper's *decision logic*: the state machine
// (acquiring / on-spot / on-demand / down), edge-triggered price-crossing
// detection, hour-end planned timing, reverse hour checks, spike
// cancellation, and the pure-spot baseline (Fig. 11) where a revocation
// simply leaves the service down until the market price returns.
//
// Observability: every trigger and migration phase is counted per
// (kind, code) in the scheduler's own SchedulerCounts — the backing store
// stats() is derived from. Only when the clock's tracer is enabled
// (Simulation::set_tracer) is the obs::TraceEvent built and emitted, so an
// untraced event costs one counter increment.
#pragma once

#include <memory>
#include <optional>

#include "cloud/provider.hpp"
#include "obs/sink.hpp"
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

class CloudScheduler : private MarketWatcher::TriggerListener {
 public:
  enum class State { kAcquiring, kOnSpot, kOnDemand, kDown };

  /// `clock` is the narrow scheduling interface (a Simulation&, implicitly)
  /// — the scheduler never touches the engine beyond it. Price steps arrive
  /// through `watcher`, which any number of schedulers may share: N
  /// schedulers over M markets cost O(M) provider subscriptions, not
  /// O(N×M). The watcher must outlive the scheduler, and the scheduler must
  /// outlive every run of `clock` after start().
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
  /// Aggregate view derived on demand from the event counts; by
  /// construction it can never disagree with an attached trace sink.
  [[nodiscard]] SchedulerStats stats() const { return scheduler_stats_from(counters_); }
  /// The raw per-(kind, code) counts backing stats().
  [[nodiscard]] const SchedulerCounts& counters() const noexcept { return counters_; }
  [[nodiscard]] const SchedulerConfig& config() const noexcept { return config_; }
  [[nodiscard]] const virt::VmSpec& vm_spec() const noexcept { return spec_; }
  [[nodiscard]] cloud::InstanceId current_instance() const noexcept {
    return holding_ ? holding_->id : cloud::kInvalidInstance;
  }
  /// The price-step layer this scheduler listens on.
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
  // The engine reports back through the hooks below and wraps its own
  // simulation callbacks in a BandRefresh.
  friend class MigrationEngine;

  /// Re-reads this scheduler's price bands on scope exit. Every simulation
  /// callback into the scheduler or its engine that is not a price step
  /// (timers, hour checks, provider grants and failures, revocation
  /// warnings, start) holds one, so no state change leaves a stale band
  /// behind. The bands read scheduler and engine state.
  class BandRefresh {
   public:
    explicit BandRefresh(CloudScheduler& scheduler) noexcept : scheduler_(scheduler) {}
    ~BandRefresh() { scheduler_.watcher_.refresh(scheduler_.listener_); }
    BandRefresh(const BandRefresh&) = delete;
    BandRefresh& operator=(const BandRefresh&) = delete;

   private:
    CloudScheduler& scheduler_;
  };

  struct Holding {
    cloud::InstanceId id = cloud::kInvalidInstance;
    cloud::MarketId market;
    bool on_demand = false;
    /// Proactive spot holdings only: the lowest price of `market` at which
    /// the effective spot price exceeds p_on (effective_price_crossing) —
    /// where price_band flips.
    double crossing_price = 0.0;
  };

  // --- events ----------------------------------------------------------
  /// MarketWatcher::TriggerListener — direct interface delivery; no
  /// per-scheduler std::function on the price-step path.
  void on_price_change(const cloud::MarketId& market, double new_price) override;
  /// The prices at which on_price_change(market) would do nothing, derived
  /// from state alone (see the definition for the rules).
  [[nodiscard]] PriceBand price_band(const cloud::MarketId& market) const override;
  void on_hour_check();
  /// Installs the provider's revocation handler for `instance` (the held
  /// spot server or the engine's spot destination): the warning reaches
  /// on_revocation_warning under a BandRefresh.
  ///
  /// Under fault injection (src/faults) the warning may be delivered late
  /// (kWarningDelayed) or collapse onto the termination instant itself
  /// (kWarningDropped) — still strictly before the instance is torn down,
  /// but possibly with `t_term == now`. The handler must not assume the
  /// full grace window is left.
  void handle_revocations(cloud::InstanceId instance);
  void on_revocation_warning(cloud::InstanceId instance, sim::SimTime t_term);

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

  // --- engine hooks ------------------------------------------------------
  // Each may run inside a simulation event, and reentrantly while the
  // scheduler's own call into the engine is on the stack (complete_switchover
  // calls on_source_released and adopt synchronously).

  /// Market of current_instance(); the home market while none is held.
  [[nodiscard]] const cloud::MarketId& source_market() const noexcept {
    return holding_ ? holding_->market : config_.home_market;
  }
  /// A migration completed (or an acquisition was granted): the service now
  /// runs on `instance`, whose revocation warnings and eventual termination
  /// are the scheduler's.
  void adopt(cloud::InstanceId instance, const cloud::MarketId& market,
             bool on_demand);
  /// A forced flow began: drop any scheduled planned-migration timer.
  void on_forced_begin();
  /// The provider terminated the source (forced t_term): the service has no
  /// home until the forced flow resumes it.
  void on_source_lost();
  /// A voluntary switchover released the source; its reverse hour check is
  /// now stale.
  void on_source_released();
  /// A voluntary destination request failed or its instance was warned
  /// before adoption; retry per the trigger policy. Advisory: the engine has
  /// already torn the move down, and does not call this when fault-recovery
  /// retries are off (the retries-off ablation strands failed moves).
  void on_voluntary_dest_failed(virt::MigrationClass cls);

  /// The only trace path, the engine's included. Counts (kind, code) in
  /// counters_, the stats backing store, so stats never disagree with the
  /// tracer. Only when the clock's tracer is enabled does it build the
  /// event (t, kind, code), call `fill(event)` to set the kind's other
  /// fields, and emit it: an untraced event builds no string. A caller
  /// whose fields read state it is about to reset traces before the reset.
  template <typename Fill>
  void trace(obs::EventKind kind, std::uint8_t code, Fill&& fill) {
    counters_.add(kind, code);
    if (obs::Tracer* tracer = clock_.tracer(); tracer != nullptr && tracer->enabled()) {
      obs::TraceEvent e;
      e.t = clock_.now();
      e.kind = kind;
      e.code = code;
      fill(e);
      tracer->emit(e);
    }
  }

  sim::Clock& clock_;
  cloud::CloudProvider& provider_;
  workload::ServiceEndpoint& service_;
  SchedulerConfig config_;
  sim::RngStream rng_;
  virt::VmSpec spec_;
  MarketWatcher& watcher_;
  std::shared_ptr<const PlacementPolicy> placement_;
  std::shared_ptr<const BidStrategy> bidding_;
  /// Borrows config_, spec_ and rng_, so it is declared after them.
  MigrationEngine engine_;
  MarketWatcher::ListenerId listener_ = MarketWatcher::kInvalidListener;

  State state_ = State::kAcquiring;
  /// Next to state_: an event bumps a count and reads the state, so both
  /// sit on nearby cache lines.
  SchedulerCounts counters_;
  bool service_live_ = false;
  std::optional<Holding> holding_;
  sim::EventHandle planned_begin_event_;
  sim::EventHandle hour_check_event_;
  cloud::InstanceId pending_acquire_ = cloud::kInvalidInstance;
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
  /// (kNoOwner = untagged, the single-service default).
  std::uint64_t owner_tag_ = cloud::kNoOwner;
};

}  // namespace spothost::sched

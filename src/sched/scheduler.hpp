// The cloud scheduler (Sec. 3): hosts an always-on service on spot servers,
// migrating between spot and on-demand servers with the paper's three
// migration classes (forced / planned / reverse).
//
// The scheduler is one state machine: its three migration classes share the
// service's holding, its billing hour and its recovery from failed requests.
// It answers the three questions of the sched/ layering:
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
//  * *How* to move is the scheduler's own migration half
//    (sched/scheduler_migration.cpp): the forced / planned / reverse
//    mechanics, driving the VM mechanism models and instance lifecycle.
//
// scheduler.cpp holds the paper's *decision logic*: the state machine
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

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cloud/provider.hpp"
#include "obs/sink.hpp"
#include "sched/bidding.hpp"
#include "sched/market_selection.hpp"
#include "sched/market_watcher.hpp"
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
  // The watcher, the provider and pending clock events hold its address.
  CloudScheduler(const CloudScheduler&) = delete;
  CloudScheduler& operator=(const CloudScheduler&) = delete;

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
  void set_owner_tag(std::uint64_t owner) { owner_tag_ = owner; }

 private:
  /// Re-reads this scheduler's price bands on scope exit. Every simulation
  /// callback into the scheduler that is not a price step (timers, hour
  /// checks, provider grants and failures, revocation warnings, start) holds
  /// one, so no state change leaves a stale band behind.
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

  /// Why an in-flight planned/reverse migration was torn down. Only
  /// kPriceRecovered counts as a "spike cancellation" in the stats.
  enum class AbandonReason : std::uint8_t {
    kPriceRecovered,  ///< the price trigger evaporated before transfer
    kDestRevoked,     ///< the destination instance got a revocation warning
    kPreempted,       ///< superseded by a forced migration of the source
    kFault,           ///< an injected mid-flight fault (e.g. live-copy abort)
  };

  /// The in-flight voluntary (planned/reverse) migration.
  struct Migration {
    virt::MigrationClass cls{};
    cloud::MarketId target;
    bool target_on_demand = false;
    cloud::InstanceId dest = cloud::kInvalidInstance;
    bool dest_ready = false;
    bool transfer_started = false;
    sim::SimTime switchover_at = -1;
    virt::MigrationTimings timings{};
    sim::EventHandle switchover_event;
  };

  /// The forced flow of a source under a revocation warning.
  struct Forced {
    sim::SimTime t_term = 0;
    cloud::InstanceId dest = cloud::kInvalidInstance;
    bool dest_ready = false;
    bool service_stopped = false;
    bool resume_scheduled = false;
    virt::MigrationTimings timings{};
    /// Market the replacement server is requested in — kept so the
    /// fault-recovery ladder can re-request after an injected capacity error.
    cloud::MarketId od_market{};
    int dest_attempts = 0;  ///< failed replacement requests so far
    bool degraded = false;  ///< degraded-mode (slow-poll) announcement made
  };

  // --- events (scheduler.cpp) -------------------------------------------
  /// MarketWatcher::TriggerListener — direct interface delivery; no
  /// per-scheduler std::function on the price-step path.
  void on_price_change(const cloud::MarketId& market, double new_price) override;
  /// The prices at which a step of `market` changes nothing, derived from
  /// state alone (see the definition for the rules). on_price_change opens
  /// by returning inside it, so a skipped delivery is a no-op by
  /// construction.
  [[nodiscard]] PriceBand price_band(const cloud::MarketId& market) const override;
  void on_hour_check();
  /// Installs the provider's revocation handler for `instance` (the held
  /// spot server or a migration's spot destination): the warning reaches
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
  /// Capacity failure while acquiring: the avoid-list fallback chain
  /// (next-cheapest spot market, then on-demand) composed with the
  /// next_retry ladder.
  void on_acquire_capacity_failed(const cloud::MarketId& market, bool was_spot);
  /// One rung of the fault-recovery ladder (DESIGN.md §5), shared by
  /// acquisition and forced replacement: counts the failure in `attempts`
  /// and returns the delay before the next try — the backoff while the
  /// budget lasts, then the backoff cap in degraded mode (announced once,
  /// through `degraded`). Traces the rung as kRetryScheduled/`code` on
  /// `market`. nullopt = retries and degradation are off: give up.
  [[nodiscard]] std::optional<sim::SimTime> next_retry(int& attempts, bool& degraded,
                                                       const cloud::MarketId& market,
                                                       std::uint8_t code);

  // --- planned / reverse decision logic --------------------------------
  void maybe_schedule_planned();
  void begin_planned();
  void schedule_hour_check();
  /// A voluntary destination request failed or its instance was warned
  /// before adoption; retry per the trigger policy. Advisory: the move is
  /// already torn down, and the retries-off ablation strands failed moves
  /// (it is not called there).
  void on_voluntary_dest_failed(virt::MigrationClass cls);

  // --- pure spot --------------------------------------------------------
  void pure_spot_reacquire();

  // --- migrations (scheduler_migration.cpp) ------------------------------
  /// Starts a voluntary (planned/reverse) migration of the holding to
  /// `target`: requests the destination, transfers once it is ready,
  /// switches over.
  void begin_voluntary(virt::MigrationClass cls, const Placement& target);
  void start_transfer();
  void complete_switchover();
  /// Tears down the in-flight voluntary migration (cancels or releases the
  /// destination, emits the abandon event).
  void abandon(AbandonReason reason);
  /// Starts the forced flow for the holding, under a revocation warning
  /// that terminates at `t_term`. Cannibalises a same-region in-flight
  /// voluntary destination; abandons any other.
  void begin_forced(sim::SimTime t_term);
  cloud::InstanceId request_forced_dest(const cloud::MarketId& od_market);
  void on_forced_dest_failed();
  void forced_try_resume();

  // --- helpers ----------------------------------------------------------
  [[nodiscard]] double od_threshold() const;  ///< p_on comparator in current region
  [[nodiscard]] PlacementQuery placement_query(double threshold) const;
  /// How long before the holding's hour boundary a `cls` move must begin:
  /// a destination allocation of mean `alloc_mean_s` with headroom, plus
  /// the move's preparation and downtime.
  [[nodiscard]] sim::SimTime lead(virt::MigrationClass cls, double alloc_mean_s) const;
  [[nodiscard]] sim::SimTime next_instance_hour_boundary() const;
  /// A planned move whose transfer has not started: a price step back below
  /// p_on abandons it (spike cancellation).
  [[nodiscard]] bool planned_abandonable() const noexcept {
    return migration_ && migration_->cls == virt::MigrationClass::kPlanned &&
           !migration_->transfer_started;
  }
  /// Market of current_instance(); the home market while none is held.
  [[nodiscard]] const cloud::MarketId& source_market() const noexcept {
    return holding_ ? holding_->market : config_.home_market;
  }
  /// `seconds` as SimTime with the configured lognormal measurement jitter,
  /// drawn from the timing stream.
  [[nodiscard]] sim::SimTime jittered(double seconds);
  /// `instance`, a request just made, tagged with this scheduler's owner in
  /// the provider's billing ledger (untagged while owner_tag_ is kNoOwner).
  cloud::InstanceId owned(cloud::InstanceId instance);
  /// A migration completed (or an acquisition was granted): the service now
  /// runs on `instance`, whose revocation warnings and eventual termination
  /// are the scheduler's.
  void adopt(cloud::InstanceId instance, const cloud::MarketId& market,
             bool on_demand);
  /// The service comes back from an outage (a restore, a switchover's
  /// downtime or a forced resume ended): it serves degraded for `degraded`
  /// more, if that is positive. A no-op while the service is up.
  void service_back_up(sim::SimTime degraded);

  /// The only trace path. Counts (kind, code) in counters_, the stats
  /// backing store, so stats never disagree with the tracer. Only when the
  /// clock's tracer is enabled does it build the event (t, kind, code),
  /// call `fill(event)` to set the kind's other fields, and emit it: an
  /// untraced event builds no string. A caller whose fields read state it
  /// is about to reset traces before the reset.
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
  virt::MigrationPlanner planner_;
  /// Fallback planner with live pre-copy stripped from the combo — used when
  /// an injected kLiveCopyAbort degrades a live migration to stop-and-copy.
  virt::MigrationPlanner ckpt_planner_;
  MarketWatcher::ListenerId listener_ = MarketWatcher::kInvalidListener;

  State state_ = State::kAcquiring;
  /// Next to state_: an event bumps a count and reads the state, so both
  /// sit on nearby cache lines.
  SchedulerCounts counters_;
  bool service_live_ = false;
  std::optional<Holding> holding_;
  std::optional<Migration> migration_;
  std::optional<Forced> forced_;
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

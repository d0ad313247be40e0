// Migration engine — layer 3 ("how to move") of the scheduler decomposition.
//
// The engine owns the mechanics of the paper's three migration classes
// (Sec. 3): the in-flight voluntary (planned/reverse) migration with its
// destination request, transfer and switchover timing, spike abandonment,
// and the forced revocation flow (bounded checkpoint flush in the grace
// window, on-demand replacement, lazy restore). It drives the VM mechanism
// models and the provider's instance lifecycle, but owns no *policy*: the
// host decides when to migrate and where to (sched/placement.hpp), and the
// engine reports back through the narrow MigrationHost interface.
//
// The host keeps sole ownership of the trace pipeline (MigrationHost::trace)
// so engine-emitted events still feed the scheduler's CounterSink — stats
// can never disagree with an attached sink — and of the timing RNG stream,
// which the engine borrows so jitter draws stay in the monolith's order
// (same-seed runs are byte-identical).
#pragma once

#include <cstdint>
#include <optional>

#include "cloud/provider.hpp"
#include "obs/counter_sink.hpp"
#include "sched/placement.hpp"
#include "sched/scheduler_config.hpp"
#include "simcore/rng.hpp"
#include "simcore/clock.hpp"
#include "virt/mechanisms.hpp"
#include "workload/endpoint.hpp"

namespace spothost::sched {

/// Why an in-flight planned/reverse migration was torn down. Only
/// kPriceRecovered counts as a "spike cancellation" in the stats.
enum class AbandonReason : std::uint8_t {
  kPriceRecovered,  ///< the price trigger evaporated before transfer
  kDestRevoked,     ///< the destination instance got a revocation warning
  kPreempted,       ///< superseded by a forced migration of the source
  kFault,           ///< an injected mid-flight fault (e.g. live-copy abort)
};

/// What the MigrationEngine needs from whoever hosts it (CloudScheduler).
/// Deliberately narrow: current-source queries, lifecycle notifications,
/// and the trace pipeline. No scheduler internals leak through.
///
/// Contract for implementers:
///  * Every method may be called from inside a simulation event, including
///    reentrantly from a host call into the engine (begin_forced abandons an
///    in-flight voluntary move, which calls back on_voluntary_dest_failed
///    only through the failure path — but adopt/on_source_released do fire
///    synchronously from complete_switchover). Implementations must tolerate
///    being invoked while their own call into the engine is on the stack.
///  * adopt() transfers ownership of `instance` to the host, which becomes
///    responsible for its revocation handler and eventual termination.
///  * on_voluntary_dest_failed is advisory: the engine has already torn the
///    migration down; the host may re-trigger or drop the move. It is NOT
///    called when fault-recovery retries are disabled (the retries-off
///    ablation deliberately strands failed moves).
///  * trace()/trace_event() are the only trace path: the engine never emits
///    events around the host, so the host's CounterSink (and therefore
///    SchedulerStats) can never disagree with an attached tracer.
class MigrationHost {
 public:
  virtual ~MigrationHost() = default;

  /// The instance currently hosting the service (kInvalidInstance if none).
  [[nodiscard]] virtual cloud::InstanceId source_instance() const noexcept = 0;
  /// Market of source_instance(); meaningful only while one is held.
  [[nodiscard]] virtual cloud::MarketId source_market() const = 0;

  /// A migration completed: the service now runs on `instance`.
  virtual void adopt(cloud::InstanceId instance, const cloud::MarketId& market,
                     bool on_demand) = 0;
  /// A forced flow began: drop any scheduled voluntary-migration timers.
  virtual void on_forced_begin() = 0;
  /// The provider terminated the source (forced t_term): the service has no
  /// home until the forced flow resumes it.
  virtual void on_source_lost() = 0;
  /// A voluntary switchover released the source; source-bound timers
  /// (reverse hour checks) are now stale.
  virtual void on_source_released() = 0;
  /// A voluntary destination request failed or its instance was revoked
  /// before adoption; the host may retry per its trigger policy.
  virtual void on_voluntary_dest_failed(virt::MigrationClass cls) = 0;
  /// A revocation warning for an instance the engine armed (a voluntary
  /// spot destination) — route back through the host's trigger handling.
  virtual void on_revocation_warning(cloud::InstanceId instance,
                                     sim::SimTime t_term) = 0;
  /// Re-derives the host's price bands (MarketWatcher::TriggerListener::
  /// price_band), which read host and engine state.
  virtual void refresh_price_bands() = 0;

  /// Calls refresh_price_bands() on scope exit. Every simulation callback
  /// into the host or its engine that is not a watcher trigger (timers,
  /// provider grants and failures, destination warnings, start) holds one,
  /// so no state change leaves a stale band behind.
  class BandRefresh {
   public:
    explicit BandRefresh(MigrationHost& host) noexcept : host_(host) {}
    ~BandRefresh() { host_.refresh_price_bands(); }
    BandRefresh(const BandRefresh&) = delete;
    BandRefresh& operator=(const BandRefresh&) = delete;

   private:
    MigrationHost& host_;
  };

  /// Trace pipeline (counters + attached tracer) — the engine never emits
  /// events around the host.
  virtual void trace(obs::TraceEvent event) = 0;
  [[nodiscard]] virtual obs::TraceEvent trace_event(obs::EventKind kind,
                                                    std::uint8_t code) const = 0;
};

class MigrationEngine {
 public:
  MigrationEngine(sim::Clock& clock, cloud::CloudProvider& provider,
                  workload::ServiceEndpoint& service, MigrationHost& host,
                  const SchedulerConfig& config, const virt::VmSpec& spec,
                  sim::RngStream& timing_rng);

  MigrationEngine(const MigrationEngine&) = delete;
  MigrationEngine& operator=(const MigrationEngine&) = delete;

  /// Starts a voluntary (planned/reverse) migration of `source` to `target`:
  /// requests the destination, transfers once it is ready, switches over.
  void begin_voluntary(virt::MigrationClass cls, const Placement& target,
                       cloud::InstanceId source);

  /// Starts the forced flow for a source under a revocation warning that
  /// terminates at `t_term`. Cannibalises a same-region in-flight voluntary
  /// destination; abandons any other.
  void begin_forced(sim::SimTime t_term, cloud::InstanceId source,
                    const cloud::MarketId& source_market);

  /// Tears down the in-flight voluntary migration (cancels or releases the
  /// destination, emits the abandon event).
  void abandon(AbandonReason reason);

  /// Consumes a revocation warning aimed at the in-flight voluntary
  /// destination: abandons it and returns its class so the host can retry.
  /// nullopt = the warning was not for our destination.
  [[nodiscard]] std::optional<virt::MigrationClass> dest_warned(
      cloud::InstanceId instance);

  // --- state queries ----------------------------------------------------
  [[nodiscard]] bool active() const noexcept {
    return migration_.has_value() || forced_.has_value();
  }
  [[nodiscard]] bool forced_active() const noexcept { return forced_.has_value(); }
  [[nodiscard]] bool voluntary_active() const noexcept {
    return migration_.has_value();
  }
  [[nodiscard]] std::optional<virt::MigrationClass> voluntary_class() const;
  [[nodiscard]] bool transfer_started() const noexcept;
  /// When a voluntary transfer is in flight: the time the service will be
  /// back up on the destination (switchover + downtime). nullopt otherwise.
  [[nodiscard]] std::optional<sim::SimTime> voluntary_completion_time() const;

  // --- shared mechanism services ---------------------------------------
  [[nodiscard]] const virt::MigrationPlanner& planner() const noexcept {
    return planner_;
  }
  /// `seconds` as SimTime with the configured lognormal measurement jitter,
  /// drawn from the host's timing stream.
  [[nodiscard]] sim::SimTime jittered(double seconds);

  /// Owner tag applied to every destination instance the engine requests
  /// from now on (cloud::CloudProvider::set_instance_owner).
  void set_owner_tag(std::uint64_t owner) noexcept { owner_ = owner; }

 private:
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

  struct Forced {
    sim::SimTime t_term = 0;
    cloud::InstanceId dest = cloud::kInvalidInstance;
    bool dest_ready = false;
    sim::SimTime dest_ready_at = -1;
    bool service_stopped = false;
    bool resume_scheduled = false;
    virt::MigrationTimings timings{};
    /// Market the replacement server is requested in — kept so the
    /// fault-recovery chain can re-request after an injected capacity error.
    cloud::MarketId od_market{};
    int dest_attempts = 0;  ///< failed replacement requests so far
    bool degraded = false;  ///< degraded-mode (slow-poll) announcement made
  };

  void start_transfer();
  void complete_switchover();
  void forced_try_resume();
  cloud::InstanceId request_forced_dest(const cloud::MarketId& od_market);
  void on_forced_dest_failed();

  sim::Clock& clock_;
  cloud::CloudProvider& provider_;
  workload::ServiceEndpoint& service_;
  MigrationHost& host_;
  const SchedulerConfig& config_;
  const virt::VmSpec& spec_;
  sim::RngStream& rng_;
  virt::MigrationPlanner planner_;
  /// Fallback planner with live pre-copy stripped from the combo — used when
  /// an injected kLiveCopyAbort degrades a live migration to stop-and-copy.
  virt::MigrationPlanner ckpt_planner_;

  std::optional<Migration> migration_;
  std::optional<Forced> forced_;
  std::uint64_t owner_ = cloud::kNoOwner;
};

}  // namespace spothost::sched

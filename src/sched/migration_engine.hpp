// Migration engine — layer 3 ("how to move") of the scheduler decomposition.
//
// The engine owns the mechanics of the paper's three migration classes
// (Sec. 3): the in-flight voluntary (planned/reverse) migration with its
// destination request, transfer and switchover timing, spike abandonment,
// and the forced revocation flow (bounded checkpoint flush in the grace
// window, on-demand replacement, lazy restore). It drives the VM mechanism
// models and the provider's instance lifecycle, but owns no *policy*: the
// CloudScheduler that holds it decides when to migrate and where to
// (sched/placement.hpp). The scheduler makes the engine a friend, and the
// engine reports back by calling the scheduler's private hooks (adopt,
// on_forced_begin, on_source_lost, on_source_released,
// on_voluntary_dest_failed) directly. Each of its simulation callbacks holds
// a CloudScheduler::BandRefresh, as the scheduler's own do.
//
// The scheduler keeps sole ownership of the trace pipeline
// (CloudScheduler::trace), so engine-emitted events are counted in its
// SchedulerCounts like its own — stats can never disagree with an attached
// sink — and are built only when a tracer is enabled. It also owns the
// timing RNG stream, which the engine borrows so jitter draws stay in the
// monolith's order (same-seed runs are byte-identical).
#pragma once

#include <cstdint>
#include <optional>

#include "cloud/provider.hpp"
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

class CloudScheduler;

class MigrationEngine {
 public:
  /// Borrows everything; `scheduler` is the one that holds this engine.
  MigrationEngine(sim::Clock& clock, cloud::CloudProvider& provider,
                  workload::ServiceEndpoint& service, CloudScheduler& scheduler,
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
  /// destination: abandons it and returns its class so the scheduler can
  /// retry.
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
  /// drawn from the scheduler's timing stream.
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
  CloudScheduler& scheduler_;
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

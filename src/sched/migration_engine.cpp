#include "sched/migration_engine.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "faults/injector.hpp"
#include "obs/sink.hpp"
#include "simcore/logging.hpp"

namespace spothost::sched {

using cloud::InstanceId;
using cloud::MarketId;
using sim::SimTime;

namespace {

std::uint8_t migration_code(virt::MigrationClass cls) noexcept {
  switch (cls) {
    case virt::MigrationClass::kForced: return obs::code::kForced;
    case virt::MigrationClass::kPlanned: return obs::code::kPlanned;
    case virt::MigrationClass::kReverse: return obs::code::kReverse;
  }
  return obs::code::kNone;
}

/// The combo with live pre-copy removed — what a live migration degrades to
/// when an injected kLiveCopyAbort fires and graceful degradation is on.
virt::MechanismCombo live_stripped(virt::MechanismCombo combo) noexcept {
  switch (combo) {
    case virt::MechanismCombo::kCkptLive: return virt::MechanismCombo::kCkpt;
    case virt::MechanismCombo::kCkptLazyLive: return virt::MechanismCombo::kCkptLazy;
    default: return combo;
  }
}

}  // namespace

MigrationEngine::MigrationEngine(sim::Clock& clock,
                                 cloud::CloudProvider& provider,
                                 workload::ServiceEndpoint& service,
                                 MigrationHost& host, const SchedulerConfig& config,
                                 const virt::VmSpec& spec, sim::RngStream& timing_rng)
    : clock_(clock),
      provider_(provider),
      service_(service),
      host_(host),
      config_(config),
      spec_(spec),
      rng_(timing_rng),
      planner_(config.combo, config.mech, virt::NetworkModel{}),
      ckpt_planner_(live_stripped(config.combo), config.mech, virt::NetworkModel{}) {}

SimTime MigrationEngine::jittered(double seconds) {
  if (seconds <= 0) return 0;
  if (config_.timing_jitter_cv <= 0) return sim::from_seconds(seconds);
  return sim::from_seconds(rng_.lognormal_mean_cv(seconds, config_.timing_jitter_cv));
}

std::optional<virt::MigrationClass> MigrationEngine::voluntary_class() const {
  if (!migration_) return std::nullopt;
  return migration_->cls;
}

bool MigrationEngine::transfer_started() const noexcept {
  return migration_ && migration_->transfer_started;
}

std::optional<SimTime> MigrationEngine::voluntary_completion_time() const {
  if (!migration_ || !migration_->transfer_started) return std::nullopt;
  return migration_->switchover_at + sim::from_seconds(migration_->timings.downtime_s);
}

// ---------------------------------------------------------------------------
// Voluntary (planned / reverse) migrations
// ---------------------------------------------------------------------------

void MigrationEngine::begin_voluntary(virt::MigrationClass cls, const Placement& target,
                                      InstanceId source) {
  Migration m;
  m.cls = cls;
  m.target = target.market;
  m.target_on_demand = target.on_demand;
  migration_ = m;

  if (target.on_demand) {
    migration_->dest = provider_.request_on_demand(
        target.market,
        [this](InstanceId iid) {
          const MigrationHost::BandRefresh refresh(host_);
          if (!migration_ || migration_->dest != iid) return;
          migration_->dest_ready = true;
          start_transfer();
        },
        [this, cls](cloud::AllocFailure) {
          const MigrationHost::BandRefresh refresh(host_);
          // Only an injected capacity fault can land here (on-demand never
          // fails on price). The injector already traced it; drop the move
          // unless the host's retry policy is allowed to re-trigger.
          if (!migration_) return;
          migration_.reset();
          if (config_.retry.retries_enabled()) host_.on_voluntary_dest_failed(cls);
        });
  } else {
    migration_->dest = provider_.request_spot(
        target.market, target.bid,
        [this](InstanceId iid) {
          const MigrationHost::BandRefresh refresh(host_);
          if (!migration_ || migration_->dest != iid) return;
          migration_->dest_ready = true;
          provider_.set_revocation_handler(
              iid, [this](InstanceId warned, SimTime t_term) {
                const MigrationHost::BandRefresh refresh_after_warning(host_);
                host_.on_revocation_warning(warned, t_term);
              });
          start_transfer();
        },
        [this, cls, target = target.market](cloud::AllocFailure reason) {
          const MigrationHost::BandRefresh refresh(host_);
          auto e = host_.trace_event(obs::EventKind::kSpotRequestFailed,
                                     obs::code::kNone);
          e.market = target.str();
          host_.trace(std::move(e));
          if (!migration_) return;
          migration_.reset();
          if (reason == cloud::AllocFailure::kInsufficientCapacity &&
              !config_.retry.retries_enabled()) {
            return;  // retries-off ablation: the faulted move is just dropped
          }
          // The chosen market evaporated; the host decides whether to retry
          // (planned: fall back to on-demand if the trigger still holds;
          // reverse: try again next billing hour).
          host_.on_voluntary_dest_failed(cls);
        });
  }
  if (owner_ != cloud::kNoOwner) {
    provider_.set_instance_owner(migration_->dest, owner_);
  }
  auto e = host_.trace_event(obs::EventKind::kMigrationBegin, migration_code(cls));
  e.instance = source;
  if (cls == virt::MigrationClass::kPlanned) {
    e.aux = target.on_demand ? 1.0 : 0.0;
  }
  e.market = target.market.str();
  host_.trace(std::move(e));
  SPOTHOST_LOG(sim::LogLevel::kInfo, clock_.now(),
               (cls == virt::MigrationClass::kReverse ? "reverse" : "planned")
                   << " migration -> " << target.market.str()
                   << (target.on_demand ? " (on-demand)" : " (spot)"));
}

void MigrationEngine::start_transfer() {
  if (!migration_ || !migration_->dest_ready || migration_->transfer_started) return;
  if (host_.source_instance() == cloud::kInvalidInstance) return;
  bool degrade_to_ckpt = false;
  if (auto* inj = clock_.fault_injector();
      inj && virt::uses_live_migration(config_.combo) &&
      inj->should_inject(faults::FaultKind::kLiveCopyAbort,
                         migration_->target.str(), migration_->dest)) {
    if (config_.retry.graceful_degradation) {
      // Live pre-copy aborted: degrade to plain stop-and-copy on the same
      // destination (longer downtime) instead of losing the migration.
      degrade_to_ckpt = true;
      auto e = host_.trace_event(obs::EventKind::kDegradedMode,
                                 obs::code::kDegradeLiveToCkpt);
      e.instance = migration_->dest;
      e.market = migration_->target.str();
      host_.trace(std::move(e));
    } else {
      const auto cls = migration_->cls;
      abandon(AbandonReason::kFault);
      if (config_.retry.retries_enabled()) host_.on_voluntary_dest_failed(cls);
      return;
    }
  }
  migration_->timings = (degrade_to_ckpt ? ckpt_planner_ : planner_)
                            .plan(migration_->cls, spec_,
                                  host_.source_market().region,
                                  migration_->target.region);
  migration_->transfer_started = true;
  migration_->switchover_at =
      clock_.now() + jittered(migration_->timings.prepare_s);
  migration_->switchover_event =
      clock_.at(migration_->switchover_at, [this] {
        const MigrationHost::BandRefresh refresh(host_);
        complete_switchover();
      });
  auto e = host_.trace_event(obs::EventKind::kMigrationTransfer,
                             migration_code(migration_->cls));
  e.instance = migration_->dest;
  e.value = migration_->timings.prepare_s;
  e.market = migration_->target.str();
  host_.trace(std::move(e));
}

void MigrationEngine::complete_switchover() {
  if (!migration_) return;
  const InstanceId source = host_.source_instance();
  if (source == cloud::kInvalidInstance) return;
  const Migration m = *migration_;
  migration_.reset();

  const SimTime downtime = jittered(m.timings.downtime_s);
  const SimTime degraded = jittered(m.timings.degraded_s);
  const auto cause = (m.cls == virt::MigrationClass::kReverse)
                         ? workload::OutageCause::kReverseMigration
                         : workload::OutageCause::kPlannedMigration;

  // Stop billing the source now; the destination has been running (and
  // billing) since it came up. A source that is already under a revocation
  // warning is left for the provider to revoke — the partial hour is then
  // free instead of billed.
  if (provider_.instance(source).state != cloud::InstanceState::kWarned) {
    provider_.terminate(source);
  }
  host_.on_source_released();

  {
    auto e = host_.trace_event(obs::EventKind::kMigrationSwitchover,
                               migration_code(m.cls));
    e.instance = m.dest;
    e.value = sim::to_seconds(downtime);
    e.aux = sim::to_seconds(degraded);
    e.market = m.target.str();
    host_.trace(std::move(e));
  }
  if (m.cls != virt::MigrationClass::kReverse && !m.target_on_demand) {
    auto e = host_.trace_event(obs::EventKind::kMarketSwitch, obs::code::kNone);
    e.instance = m.dest;
    e.market = m.target.str();
    host_.trace(std::move(e));
  }

  if (downtime > 0 && service_.is_up()) {
    service_.begin_outage(clock_.now(), cause);
    clock_.after(downtime, [this, degraded] {
      const MigrationHost::BandRefresh refresh(host_);
      if (forced_) return;  // a forced flow took over mid-switchover
      if (!service_.is_up()) {
        service_.end_outage(clock_.now(), degraded > 0);
        if (degraded > 0) {
          clock_.after(degraded, [this] {
            const MigrationHost::BandRefresh refresh_after_degraded(host_);
            service_.end_degraded(clock_.now());
          });
        }
      }
    });
  }
  host_.adopt(m.dest, m.target, m.target_on_demand);
}

void MigrationEngine::abandon(AbandonReason reason) {
  if (!migration_) return;
  migration_->switchover_event.cancel();
  if (migration_->dest != cloud::kInvalidInstance) {
    // Pending requests are cancelled; a ready destination is released (its
    // partial hour is billed — the price of a cancelled migration).
    provider_.terminate(migration_->dest);
  }
  std::uint8_t code = obs::code::kAbandonPreempted;
  switch (reason) {
    case AbandonReason::kPriceRecovered: code = obs::code::kAbandonPriceRecovered; break;
    case AbandonReason::kDestRevoked: code = obs::code::kAbandonDestRevoked; break;
    case AbandonReason::kPreempted: code = obs::code::kAbandonPreempted; break;
    case AbandonReason::kFault: code = obs::code::kAbandonFault; break;
  }
  auto e = host_.trace_event(obs::EventKind::kMigrationAbandon, code);
  e.instance = migration_->dest;
  e.market = migration_->target.str();
  migration_.reset();
  host_.trace(std::move(e));
}

std::optional<virt::MigrationClass> MigrationEngine::dest_warned(InstanceId instance) {
  if (!migration_ || instance != migration_->dest) return std::nullopt;
  const auto cls = migration_->cls;
  abandon(AbandonReason::kDestRevoked);
  return cls;
}

// ---------------------------------------------------------------------------
// Forced migrations
// ---------------------------------------------------------------------------

InstanceId MigrationEngine::request_forced_dest(const MarketId& od_market) {
  const InstanceId iid = provider_.request_on_demand(
      od_market,
      [this](InstanceId granted) {
        const MigrationHost::BandRefresh refresh(host_);
        if (!forced_ || forced_->dest != granted) return;
        forced_->dest_ready = true;
        forced_->dest_ready_at = clock_.now();
        forced_try_resume();
      },
      [this](cloud::AllocFailure) {
        const MigrationHost::BandRefresh refresh(host_);
        on_forced_dest_failed();
      });
  if (owner_ != cloud::kNoOwner) provider_.set_instance_owner(iid, owner_);
  return iid;
}

void MigrationEngine::on_forced_dest_failed() {
  if (!forced_) return;
  forced_->dest = cloud::kInvalidInstance;
  const int attempt = ++forced_->dest_attempts;
  const RetryPolicy& retry = config_.retry;
  double delay_s = 0.0;
  if (retry.retries_enabled() && attempt <= retry.max_attempts) {
    delay_s = retry.backoff_s(attempt);
  } else if (retry.graceful_degradation) {
    // Retry budget spent: announce degraded mode once, then keep polling at
    // the backoff cap — the service eventually comes back, just slowly.
    if (!forced_->degraded) {
      forced_->degraded = true;
      auto e = host_.trace_event(obs::EventKind::kDegradedMode,
                                 obs::code::kDegradeSlowRetry);
      e.market = forced_->od_market.str();
      host_.trace(std::move(e));
    }
    delay_s = retry.backoff_max_s;
  } else {
    // Retries off, no degradation: the forced flow stays stuck with the
    // service down — the retries-off ablation arm measures exactly this.
    SPOTHOST_LOG(sim::LogLevel::kWarn, clock_.now(),
                 "forced replacement in " << forced_->od_market.str()
                     << " failed; retries disabled, giving up");
    return;
  }
  {
    auto e = host_.trace_event(obs::EventKind::kRetryScheduled,
                               obs::code::kRetryForcedDest);
    e.value = static_cast<double>(attempt);
    e.aux = delay_s;
    e.market = forced_->od_market.str();
    host_.trace(std::move(e));
  }
  clock_.after(sim::from_seconds(delay_s), [this] {
    const MigrationHost::BandRefresh refresh(host_);
    if (!forced_ || forced_->dest != cloud::kInvalidInstance) return;
    forced_->dest = request_forced_dest(forced_->od_market);
  });
}

void MigrationEngine::begin_forced(SimTime t_term, InstanceId source,
                                   const MarketId& source_market) {
  {
    auto e = host_.trace_event(obs::EventKind::kMigrationBegin, obs::code::kForced);
    e.instance = source;
    e.value = sim::to_seconds(t_term);
    e.market = source_market.str();
    host_.trace(std::move(e));
  }
  host_.on_forced_begin();

  Forced f;
  f.t_term = t_term;
  f.timings = planner_.plan(virt::MigrationClass::kForced, spec_,
                            source_market.region, source_market.region);

  // Reuse an in-flight destination in the same region; otherwise release it
  // and request a fresh on-demand server here.
  if (migration_ && migration_->dest != cloud::kInvalidInstance &&
      migration_->target.region == source_market.region) {
    migration_->switchover_event.cancel();
    f.dest = migration_->dest;
    f.dest_ready = migration_->dest_ready;
    if (f.dest_ready) f.dest_ready_at = clock_.now();
    migration_.reset();
  } else {
    if (migration_) abandon(AbandonReason::kPreempted);
  }
  forced_ = f;

  const MarketId od_market{source_market.region, config_.home_market.size};
  forced_->od_market = od_market;
  if (forced_->dest == cloud::kInvalidInstance) {
    forced_->dest = request_forced_dest(od_market);
  } else if (!forced_->dest_ready) {
    // The reused destination is still pending, and its ready callback checks
    // migration_, which is now reset — it would be dropped on grant. Swap it
    // for a fresh on-demand request wired to the forced flow.
    provider_.cancel_request(forced_->dest);
    forced_->dest = request_forced_dest(od_market);
  }

  // Keep serving until the last moment the bounded flush allows.
  const SimTime t_stop = std::max(clock_.now(),
                                  t_term - sim::from_seconds(forced_->timings.flush_s));
  clock_.at(t_stop, [this] {
    const MigrationHost::BandRefresh refresh(host_);
    if (!forced_) return;
    if (service_.is_up()) {
      service_.begin_outage(clock_.now(),
                            workload::OutageCause::kForcedMigration);
    }
    forced_->service_stopped = true;
    auto e = host_.trace_event(obs::EventKind::kMigrationTransfer, obs::code::kForced);
    e.value = forced_->timings.flush_s;  // the bounded checkpoint flush
    host_.trace(std::move(e));
    forced_try_resume();
  });
  clock_.at(t_term, [this] {
    const MigrationHost::BandRefresh refresh(host_);
    if (!forced_) return;
    host_.on_source_lost();
    forced_try_resume();
  });
  SPOTHOST_LOG(sim::LogLevel::kInfo, clock_.now(),
               "forced migration, termination at " << sim::format_time(t_term));
}

void MigrationEngine::forced_try_resume() {
  if (!forced_ || forced_->resume_scheduled) return;
  if (!forced_->service_stopped || !forced_->dest_ready) return;
  if (clock_.now() < forced_->t_term) return;  // source not gone yet
  forced_->resume_scheduled = true;
  SimTime restore = jittered(forced_->timings.restore_s);
  SimTime degraded = jittered(forced_->timings.degraded_s);
  if (auto* inj = clock_.fault_injector(); inj) {
    const std::string dest_market = provider_.instance(forced_->dest).market.str();
    if (inj->should_inject(faults::FaultKind::kCheckpointStall, dest_market,
                           forced_->dest)) {
      const auto stall = static_cast<SimTime>(std::llround(
          static_cast<double>(restore) *
          (inj->plan().checkpoint_stall_factor - 1.0)));
      if (config_.retry.graceful_degradation) {
        // Absorb the stalled tail as degraded time (lazy-restore style): the
        // service comes up on schedule and back-fills slowly.
        degraded += stall;
        auto e = host_.trace_event(obs::EventKind::kDegradedMode,
                                   obs::code::kDegradeStallAbsorbed);
        e.instance = forced_->dest;
        e.value = sim::to_seconds(stall);
        e.market = dest_market;
        host_.trace(std::move(e));
      } else {
        restore += stall;  // the outage holds until the full transfer lands
      }
    }
  }
  clock_.after(restore, [this, restore, degraded] {
    const MigrationHost::BandRefresh refresh(host_);
    if (!forced_) return;
    const Forced f = *forced_;
    forced_.reset();
    if (!service_.is_up()) {
      service_.end_outage(clock_.now(), degraded > 0);
      if (degraded > 0) {
        clock_.after(degraded, [this] {
          const MigrationHost::BandRefresh refresh_after_degraded(host_);
          service_.end_degraded(clock_.now());
        });
      }
    }
    const auto& inst = provider_.instance(f.dest);
    auto e = host_.trace_event(obs::EventKind::kMigrationSwitchover, obs::code::kForced);
    e.instance = f.dest;
    e.value = sim::to_seconds(restore);
    e.aux = sim::to_seconds(degraded);
    e.market = inst.market.str();
    host_.trace(std::move(e));
    host_.adopt(f.dest, inst.market, inst.mode == cloud::BillingMode::kOnDemand);
  });
}

}  // namespace spothost::sched

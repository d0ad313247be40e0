// The scheduler's migration half — *how* to move (Sec. 3): the in-flight
// voluntary (planned/reverse) migration with its destination request,
// transfer and switchover timing and spike abandonment, and the forced
// revocation flow (bounded checkpoint flush in the grace window, on-demand
// replacement, lazy restore). It drives the VM mechanism models and the
// provider's instance lifecycle; the decision logic (which trigger starts
// which move) is in scheduler.cpp.
#include <algorithm>
#include <cmath>

#include "faults/injector.hpp"
#include "obs/sink.hpp"
#include "sched/scheduler.hpp"
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

}  // namespace

SimTime CloudScheduler::jittered(double seconds) {
  if (seconds <= 0) return 0;
  if (config_.timing_jitter_cv <= 0) return sim::from_seconds(seconds);
  return sim::from_seconds(rng_.lognormal_mean_cv(seconds, config_.timing_jitter_cv));
}

void CloudScheduler::service_back_up(SimTime degraded) {
  if (service_.is_up()) return;
  service_.end_outage(clock_.now(), degraded > 0);
  if (degraded > 0) {
    clock_.after(degraded, [this] {
      const BandRefresh refresh(*this);
      service_.end_degraded(clock_.now());
    });
  }
}

// ---------------------------------------------------------------------------
// Voluntary (planned / reverse) migrations
// ---------------------------------------------------------------------------

void CloudScheduler::begin_voluntary(virt::MigrationClass cls, const Placement& target) {
  const InstanceId source = holding_->id;
  Migration m;
  m.cls = cls;
  m.target = target.market;
  m.target_on_demand = target.on_demand;
  migration_ = m;

  if (target.on_demand) {
    migration_->dest = owned(provider_.request_on_demand(
        target.market,
        [this](InstanceId iid) {
          const BandRefresh refresh(*this);
          if (!migration_ || migration_->dest != iid) return;
          migration_->dest_ready = true;
          start_transfer();
        },
        [this, cls](cloud::AllocFailure) {
          const BandRefresh refresh(*this);
          // Only an injected capacity fault can land here (on-demand never
          // fails on price). The injector already traced it; drop the move
          // unless the retry policy is allowed to re-trigger.
          if (!migration_) return;
          migration_.reset();
          if (config_.retry.retries_enabled()) on_voluntary_dest_failed(cls);
        }));
  } else {
    migration_->dest = owned(provider_.request_spot(
        target.market, target.bid,
        [this](InstanceId iid) {
          const BandRefresh refresh(*this);
          if (!migration_ || migration_->dest != iid) return;
          migration_->dest_ready = true;
          handle_revocations(iid);
          start_transfer();
        },
        [this, cls, target = target.market](cloud::AllocFailure reason) {
          const BandRefresh refresh(*this);
          trace(obs::EventKind::kSpotRequestFailed, obs::code::kNone,
                [&](obs::TraceEvent& e) { e.market = target.str(); });
          if (!migration_) return;
          migration_.reset();
          if (reason == cloud::AllocFailure::kInsufficientCapacity &&
              !config_.retry.retries_enabled()) {
            return;  // retries-off ablation: the faulted move is just dropped
          }
          // The chosen market evaporated; decide whether to retry (planned:
          // fall back to on-demand if the trigger still holds; reverse: try
          // again next billing hour).
          on_voluntary_dest_failed(cls);
        }));
  }
  trace(obs::EventKind::kMigrationBegin, migration_code(cls), [&](obs::TraceEvent& e) {
    e.instance = source;
    if (cls == virt::MigrationClass::kPlanned) e.aux = target.on_demand ? 1.0 : 0.0;
    e.market = target.market.str();
  });
  SPOTHOST_LOG(sim::LogLevel::kInfo, clock_.now(),
               (cls == virt::MigrationClass::kReverse ? "reverse" : "planned")
                   << " migration -> " << target.market.str()
                   << (target.on_demand ? " (on-demand)" : " (spot)"));
}

void CloudScheduler::start_transfer() {
  if (!migration_ || !migration_->dest_ready || migration_->transfer_started) return;
  if (!holding_) return;
  bool degrade_to_ckpt = false;
  if (auto* inj = clock_.fault_injector();
      inj && virt::uses_live_migration(config_.combo) &&
      inj->should_inject(
          faults::FaultKind::kLiveCopyAbort,
          [this] { return migration_->target.str(); }, migration_->dest)) {
    if (config_.retry.graceful_degradation) {
      // Live pre-copy aborted: degrade to plain stop-and-copy on the same
      // destination (longer downtime) instead of losing the migration.
      degrade_to_ckpt = true;
      trace(obs::EventKind::kDegradedMode, obs::code::kDegradeLiveToCkpt,
            [this](obs::TraceEvent& e) {
              e.instance = migration_->dest;
              e.market = migration_->target.str();
            });
    } else {
      const auto cls = migration_->cls;
      abandon(AbandonReason::kFault);
      if (config_.retry.retries_enabled()) on_voluntary_dest_failed(cls);
      return;
    }
  }
  migration_->timings =
      (degrade_to_ckpt ? ckpt_planner_ : planner_)
          .plan(migration_->cls, spec_, source_market().region, migration_->target.region);
  migration_->transfer_started = true;
  migration_->switchover_at =
      clock_.now() + jittered(migration_->timings.prepare_s);
  migration_->switchover_event = clock_.at(migration_->switchover_at, [this] {
    const BandRefresh refresh(*this);
    complete_switchover();
  });
  trace(obs::EventKind::kMigrationTransfer, migration_code(migration_->cls),
        [this](obs::TraceEvent& e) {
          e.instance = migration_->dest;
          e.value = migration_->timings.prepare_s;
          e.market = migration_->target.str();
        });
}

void CloudScheduler::complete_switchover() {
  if (!migration_ || !holding_) return;
  const InstanceId source = holding_->id;
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
  hour_check_event_.cancel();  // the released source's reverse check is stale

  trace(obs::EventKind::kMigrationSwitchover, migration_code(m.cls),
        [&](obs::TraceEvent& e) {
          e.instance = m.dest;
          e.value = sim::to_seconds(downtime);
          e.aux = sim::to_seconds(degraded);
          e.market = m.target.str();
        });
  if (m.cls != virt::MigrationClass::kReverse && !m.target_on_demand) {
    trace(obs::EventKind::kMarketSwitch, obs::code::kNone, [&](obs::TraceEvent& e) {
      e.instance = m.dest;
      e.market = m.target.str();
    });
  }

  if (downtime > 0 && service_.is_up()) {
    service_.begin_outage(clock_.now(), cause);
    clock_.after(downtime, [this, degraded] {
      const BandRefresh refresh(*this);
      if (forced_) return;  // a forced flow took over mid-switchover
      service_back_up(degraded);
    });
  }
  adopt(m.dest, m.target, m.target_on_demand);
}

void CloudScheduler::abandon(AbandonReason reason) {
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
  // The event reads migration_, so it is traced before the reset.
  trace(obs::EventKind::kMigrationAbandon, code, [this](obs::TraceEvent& e) {
    e.instance = migration_->dest;
    e.market = migration_->target.str();
  });
  migration_.reset();
}

// ---------------------------------------------------------------------------
// Forced migrations
// ---------------------------------------------------------------------------

InstanceId CloudScheduler::request_forced_dest(const MarketId& od_market) {
  return owned(provider_.request_on_demand(
      od_market,
      [this](InstanceId granted) {
        const BandRefresh refresh(*this);
        if (!forced_ || forced_->dest != granted) return;
        forced_->dest_ready = true;
        forced_try_resume();
      },
      [this](cloud::AllocFailure) {
        const BandRefresh refresh(*this);
        on_forced_dest_failed();
      }));
}

void CloudScheduler::on_forced_dest_failed() {
  if (!forced_) return;
  forced_->dest = cloud::kInvalidInstance;
  const auto delay = next_retry(forced_->dest_attempts, forced_->degraded,
                                forced_->od_market, obs::code::kRetryForcedDest);
  if (!delay) {
    // The forced flow stays stuck with the service down — the retries-off
    // ablation arm measures exactly this.
    SPOTHOST_LOG(sim::LogLevel::kWarn, clock_.now(),
                 "forced replacement in " << forced_->od_market.str()
                     << " failed; retries disabled, giving up");
    return;
  }
  clock_.after(*delay, [this] {
    const BandRefresh refresh(*this);
    if (!forced_ || forced_->dest != cloud::kInvalidInstance) return;
    forced_->dest = request_forced_dest(forced_->od_market);
  });
}

void CloudScheduler::begin_forced(SimTime t_term) {
  const MarketId& from = holding_->market;
  trace(obs::EventKind::kMigrationBegin, obs::code::kForced, [&](obs::TraceEvent& e) {
    e.instance = holding_->id;
    e.value = sim::to_seconds(t_term);
    e.market = from.str();
  });
  planned_begin_event_.cancel();  // the forced flow supersedes a planned timer

  Forced f;
  f.t_term = t_term;
  f.timings = planner_.plan(virt::MigrationClass::kForced, spec_, from.region, from.region);

  // Reuse an in-flight destination in the same region; otherwise release it
  // and request a fresh on-demand server here.
  if (migration_ && migration_->dest != cloud::kInvalidInstance &&
      migration_->target.region == from.region) {
    migration_->switchover_event.cancel();
    f.dest = migration_->dest;
    f.dest_ready = migration_->dest_ready;
    migration_.reset();
  } else {
    if (migration_) abandon(AbandonReason::kPreempted);
  }
  forced_ = f;

  const MarketId od_market{from.region, config_.home_market.size};
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
    const BandRefresh refresh(*this);
    if (!forced_) return;
    if (service_.is_up()) {
      service_.begin_outage(clock_.now(), workload::OutageCause::kForcedMigration);
    }
    forced_->service_stopped = true;
    trace(obs::EventKind::kMigrationTransfer, obs::code::kForced,
          [this](obs::TraceEvent& e) {
            e.value = forced_->timings.flush_s;  // the bounded checkpoint flush
          });
    forced_try_resume();
  });
  clock_.at(t_term, [this] {
    const BandRefresh refresh(*this);
    if (!forced_) return;
    // The provider terminated the source: the service has no home until the
    // forced flow resumes it.
    holding_.reset();
    state_ = State::kDown;
    forced_try_resume();
  });
  SPOTHOST_LOG(sim::LogLevel::kInfo, clock_.now(),
               "forced migration, termination at " << sim::format_time(t_term));
}

void CloudScheduler::forced_try_resume() {
  if (!forced_ || forced_->resume_scheduled) return;
  if (!forced_->service_stopped || !forced_->dest_ready) return;
  if (clock_.now() < forced_->t_term) return;  // source not gone yet
  forced_->resume_scheduled = true;
  SimTime restore = jittered(forced_->timings.restore_s);
  SimTime degraded = jittered(forced_->timings.degraded_s);
  if (auto* inj = clock_.fault_injector(); inj) {
    const MarketId& dest_market = provider_.instance(forced_->dest).market;
    if (inj->should_inject(faults::FaultKind::kCheckpointStall,
                           [&] { return dest_market.str(); }, forced_->dest)) {
      const auto stall = static_cast<SimTime>(std::llround(
          static_cast<double>(restore) *
          (inj->plan().checkpoint_stall_factor - 1.0)));
      if (config_.retry.graceful_degradation) {
        // Absorb the stalled tail as degraded time (lazy-restore style): the
        // service comes up on schedule and back-fills slowly.
        degraded += stall;
        trace(obs::EventKind::kDegradedMode, obs::code::kDegradeStallAbsorbed,
              [&](obs::TraceEvent& e) {
                e.instance = forced_->dest;
                e.value = sim::to_seconds(stall);
                e.market = dest_market.str();
              });
      } else {
        restore += stall;  // the outage holds until the full transfer lands
      }
    }
  }
  clock_.after(restore, [this, restore, degraded] {
    const BandRefresh refresh(*this);
    if (!forced_) return;
    const InstanceId dest = forced_->dest;
    forced_.reset();
    service_back_up(degraded);
    const auto& inst = provider_.instance(dest);
    trace(obs::EventKind::kMigrationSwitchover, obs::code::kForced,
          [&](obs::TraceEvent& e) {
            e.instance = dest;
            e.value = sim::to_seconds(restore);
            e.aux = sim::to_seconds(degraded);
            e.market = inst.market.str();
          });
    adopt(dest, inst.market, inst.mode == cloud::BillingMode::kOnDemand);
  });
}

}  // namespace spothost::sched

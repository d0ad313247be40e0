#include "sched/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/sink.hpp"
#include "simcore/logging.hpp"

namespace spothost::sched {

using cloud::InstanceId;
using cloud::MarketId;
using sim::SimTime;

namespace {

constexpr double kLeadSafetyFactor = 1.3;  // allocation-latency headroom
constexpr SimTime kLeadSlack = 60 * sim::kSecond;

// The planners are built from the config in the member initializers, so the
// config is checked there, before anything reads it.
SchedulerConfig checked(SchedulerConfig config) {
  config.validate();
  return config;
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

CloudScheduler::CloudScheduler(sim::Clock& clock,
                               cloud::CloudProvider& provider, MarketWatcher& watcher,
                               workload::ServiceEndpoint& service,
                               SchedulerConfig config, sim::RngStream timing_rng)
    : clock_(clock),
      provider_(provider),
      service_(service),
      config_(checked(std::move(config))),
      rng_(std::move(timing_rng)),
      spec_(config_.vm_spec),
      watcher_(watcher),
      planner_(config_.combo, config_.mech, virt::NetworkModel{}),
      ckpt_planner_(live_stripped(config_.combo), config_.mech, virt::NetworkModel{}) {
  if (spec_.memory_gb <= 0) {
    const auto& info = cloud::type_info(config_.home_market.size);
    spec_ = virt::default_spec_for_memory(info.memory_gb, info.disk_gb);
  }
  if (!provider_.has_market(config_.home_market)) {
    throw std::invalid_argument("CloudScheduler: unknown home market " +
                                config_.home_market.str());
  }
  if (config_.scope == MarketScope::kMultiRegion && config_.allowed_regions.empty()) {
    config_.allowed_regions = provider_.regions();
  }
  placement_ = placement_policy_for(config_);
  bidding_ = bid_strategy_for(config_);
  listener_ = watcher_.add_listener(
      static_cast<MarketWatcher::TriggerListener*>(this));
}

CloudScheduler::~CloudScheduler() {
  if (listener_ != MarketWatcher::kInvalidListener) {
    watcher_.remove_listener(listener_);
  }
}

int CloudScheduler::units_needed() const {
  if (config_.capacity_units_override > 0) return config_.capacity_units_override;
  return cloud::type_info(config_.home_market.size).capacity_units;
}

double CloudScheduler::od_threshold() const {
  return effective_on_demand_price(provider_, source_market().region,
                                   config_.home_market.size);
}

PlacementQuery CloudScheduler::placement_query(double threshold) const {
  PlacementQuery query;
  query.units_needed = units_needed();
  query.max_effective_price = threshold;
  if (holding_ && !holding_->on_demand) query.exclude = holding_->market;
  query.avoid = avoid_markets_;
  query.fallback_region = source_market().region;
  query.now = clock_.now();
  return query;
}

SimTime CloudScheduler::lead(virt::MigrationClass cls, double alloc_mean_s) const {
  const std::string& region = source_market().region;
  const auto t = planner_.plan(cls, spec_, region, region);
  return sim::from_seconds(alloc_mean_s * kLeadSafetyFactor + t.prepare_s + t.downtime_s) +
         kLeadSlack;
}

SimTime CloudScheduler::next_instance_hour_boundary() const {
  if (!holding_) throw std::logic_error("next_instance_hour_boundary: no holding");
  const SimTime launch = provider_.instance(holding_->id).launch;
  const SimTime elapsed = clock_.now() - launch;
  const SimTime hours = elapsed / sim::kHour + 1;
  return launch + hours * sim::kHour;
}

void CloudScheduler::start() {
  // Watch every market the placement policy may choose from, plus the home
  // market (pure-spot reacquisition). Whatever the fleet size, the watcher
  // holds one provider subscription per market.
  auto markets = placement_->watched_markets(provider_, config_);
  if (std::find(markets.begin(), markets.end(), config_.home_market) ==
      markets.end()) {
    markets.push_back(config_.home_market);
  }
  const BandRefresh refresh(*this);
  watcher_.watch(listener_, markets);
  acquire_initial();
}

void CloudScheduler::acquire_initial() {
  if (!config_.on_demand_allowed()) {
    pure_spot_reacquire();
    return;
  }
  const double threshold = effective_on_demand_price(
      provider_, config_.home_market.region, config_.home_market.size);
  const auto query = placement_query(threshold);
  const auto best = placement_->choose_spot(provider_, config_, query);
  if (best) {
    const MarketId target = best->market;
    pending_acquire_ = owned(provider_.request_spot(
        target, best->bid,
        [this, target](InstanceId iid) {
          const BandRefresh refresh(*this);
          pending_acquire_ = cloud::kInvalidInstance;
          adopt(iid, target, /*on_demand=*/false);
        },
        [this, target](cloud::AllocFailure reason) {
          const BandRefresh refresh(*this);
          pending_acquire_ = cloud::kInvalidInstance;
          trace(obs::EventKind::kSpotRequestFailed, obs::code::kNone,
                [&](obs::TraceEvent& e) { e.market = target.str(); });
          if (reason == cloud::AllocFailure::kInsufficientCapacity) {
            on_acquire_capacity_failed(target, /*was_spot=*/true);
            return;
          }
          acquire_initial();  // price moved; re-evaluate (likely on-demand now)
        }));
    return;
  }
  const Placement od = placement_->choose_on_demand(provider_, config_, query);
  pending_acquire_ = owned(provider_.request_on_demand(
      od.market,
      [this, od_market = od.market](InstanceId iid) {
        const BandRefresh refresh(*this);
        pending_acquire_ = cloud::kInvalidInstance;
        adopt(iid, od_market, /*on_demand=*/true);
      },
      [this, od_market = od.market](cloud::AllocFailure) {
        const BandRefresh refresh(*this);
        pending_acquire_ = cloud::kInvalidInstance;
        on_acquire_capacity_failed(od_market, /*was_spot=*/false);
      }));
}

void CloudScheduler::on_acquire_capacity_failed(const MarketId& market,
                                                bool was_spot) {
  // Only skip the failed market when a fallback exists; the pure-spot
  // baseline (and an on-demand failure) must keep retrying the same market.
  if (was_spot && config_.on_demand_allowed() &&
      std::find(avoid_markets_.begin(), avoid_markets_.end(), market) ==
          avoid_markets_.end()) {
    avoid_markets_.push_back(market);
  }
  const auto delay = next_retry(acquire_attempts_, degraded_acquire_, market,
                                obs::code::kRetryAcquire);
  if (!delay) {
    // Acquisition is abandoned and the service stays down — the retries-off
    // ablation arm measures exactly this.
    SPOTHOST_LOG(sim::LogLevel::kWarn, clock_.now(),
                 "acquisition in " << market.str()
                     << " failed (capacity); retries disabled, giving up");
    return;
  }
  clock_.after(*delay, [this] {
    const BandRefresh refresh(*this);
    if (pending_acquire_ != cloud::kInvalidInstance) return;
    if (state_ != State::kAcquiring && state_ != State::kDown) return;
    if (migration_ || forced_) return;
    acquire_initial();
  });
}

std::optional<SimTime> CloudScheduler::next_retry(int& attempts, bool& degraded,
                                                  const MarketId& market,
                                                  std::uint8_t code) {
  const int attempt = ++attempts;
  const RetryPolicy& retry = config_.retry;
  double delay_s = retry.backoff_max_s;
  if (retry.retries_enabled() && attempt <= retry.max_attempts) {
    delay_s = retry.backoff_s(attempt);
  } else if (!retry.graceful_degradation) {
    return std::nullopt;
  } else if (!degraded) {
    // Retry budget spent: announce degraded mode once, then keep polling at
    // the backoff cap — the operation eventually succeeds, just slowly.
    degraded = true;
    trace(obs::EventKind::kDegradedMode, obs::code::kDegradeSlowRetry,
          [&](obs::TraceEvent& e) { e.market = market.str(); });
  }
  trace(obs::EventKind::kRetryScheduled, code, [&](obs::TraceEvent& e) {
    e.value = static_cast<double>(attempt);
    e.aux = delay_s;
    e.market = market.str();
  });
  return sim::from_seconds(delay_s);
}

void CloudScheduler::adopt(InstanceId instance, const MarketId& market,
                           bool on_demand) {
  holding_ = Holding{instance, market, on_demand, 0.0};
  if (!on_demand && bidding_->plans_migrations(config_) &&
      config_.on_demand_allowed()) {
    holding_->crossing_price =
        effective_price_crossing(market.size, units_needed(), od_threshold());
  }
  state_ = on_demand ? State::kOnDemand : State::kOnSpot;
  crossing_.reset();  // crossings are relative to the adopted market
  acquire_attempts_ = 0;  // the fault-recovery episode ended in a grant
  avoid_markets_.clear();
  degraded_acquire_ = false;
  if (!service_live_) {
    service_.go_live(clock_.now());
    service_live_ = true;
  }
  if (!on_demand) {
    handle_revocations(instance);
    // Guard against adopting into an already-hot market.
    if (bidding_->plans_migrations(config_) && config_.on_demand_allowed() &&
        effective_spot_price(provider_, market, units_needed()) > od_threshold()) {
      maybe_schedule_planned();
    }
  } else {
    schedule_hour_check();
  }
  SPOTHOST_LOG(sim::LogLevel::kInfo, clock_.now(),
               "adopt " << market.str() << (on_demand ? " (on-demand)" : " (spot)")
                        << " instance " << instance);
}

InstanceId CloudScheduler::owned(InstanceId instance) {
  if (owner_tag_ != cloud::kNoOwner) provider_.set_instance_owner(instance, owner_tag_);
  return instance;
}

// ---------------------------------------------------------------------------
// Price triggers
// ---------------------------------------------------------------------------

void CloudScheduler::on_price_change(const MarketId& market, double new_price) {
  (void)new_price;
  // The band is the rule for which steps matter: a step inside it changes
  // nothing, whether or not the watcher skipped it.
  if (price_band(market).contains(provider_.price(market))) return;

  // Pure spot, acquiring or down: the market may have dipped back below the
  // bid (this also covers an initial acquisition waiting for the price).
  if (!config_.on_demand_allowed()) {
    pure_spot_reacquire();
    return;
  }

  // A proactive spot holding, and `market` is the held one.
  const double eff = effective_spot_price(provider_, market, units_needed());
  const double threshold = od_threshold();
  const bool above = eff > threshold;
  // Edge-triggered: one event per crossing of the on-demand threshold, not
  // one per price tick.
  if (crossing_.observe(above) != CrossingDetector::Edge::kNone) {
    trace(obs::EventKind::kPriceCrossing, above ? obs::code::kAbove : obs::code::kBelow,
          [&](obs::TraceEvent& e) {
            e.instance = holding_->id;
            e.value = eff;
            e.aux = threshold;
            e.market = market.str();
          });
  }
  if (above) {
    maybe_schedule_planned();
  } else {
    // Spike cancellation: a planned move whose trigger evaporated before
    // its transfer started is abandoned.
    planned_begin_event_.cancel();
    if (planned_abandonable()) abandon(AbandonReason::kPriceRecovered);
  }
}

PriceBand CloudScheduler::price_band(const MarketId& market) const {
  // Only two states act on a price step. Pure spot while acquiring or down
  // wakes on every step, because the bid may depend on now; a proactive
  // spot holding acts on its own market's steps, below. Nothing else does,
  // and a forced flow owns the next transitions.
  if (forced_) return PriceBand::everything();
  if (!config_.on_demand_allowed()) {
    return state_ == State::kDown || state_ == State::kAcquiring
               ? PriceBand{}
               : PriceBand::everything();
  }
  if (state_ != State::kOnSpot || !holding_ || market != holding_->market ||
      !bidding_->plans_migrations(config_)) {
    return PriceBand::everything();
  }
  // Proactive on the held market: a step is a no-op on one side of the
  // price where the effective price first exceeds p_on, when nothing is
  // armed that a step to that side would touch.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double edge = holding_->crossing_price;
  const bool timer_pending = planned_begin_event_.valid();
  if (!crossing_.above()) {
    // Below (or fresh): a step below emits no edge and has no timer to
    // cancel and no planned move to abandon.
    if (!timer_pending && !planned_abandonable()) return PriceBand{-kInf, edge};
  } else if (timer_pending || migration_) {
    // Above with a move already armed: a step above emits no edge and
    // maybe_schedule_planned() returns at once.
    return PriceBand{edge, kInf};
  }
  return PriceBand{};
}

// ---------------------------------------------------------------------------
// Planned migrations
// ---------------------------------------------------------------------------

void CloudScheduler::maybe_schedule_planned() {
  if (migration_ || forced_ || planned_begin_event_.valid()) return;
  if (config_.planned_timing == PlannedTiming::kImmediate) {
    begin_planned();
    return;
  }
  const SimTime begin_at =
      next_instance_hour_boundary() -
      lead(virt::MigrationClass::kPlanned,
           provider_.allocation_latency(source_market().region).on_demand_mean_s);
  if (begin_at <= clock_.now()) {
    begin_planned();
    return;
  }
  planned_begin_event_ = clock_.at(begin_at, [this] {
    const BandRefresh refresh(*this);
    planned_begin_event_.reset();
    if (state_ != State::kOnSpot || migration_ || forced_ || !holding_) return;
    const double eff =
        effective_spot_price(provider_, holding_->market, units_needed());
    if (eff > od_threshold()) begin_planned();
  });
}

void CloudScheduler::begin_planned() {
  if (state_ != State::kOnSpot || migration_ || forced_ || !holding_) return;
  const double threshold = od_threshold() * config_.reverse_price_margin;
  const auto query = placement_query(threshold);
  const auto best = placement_->choose_spot(provider_, config_, query);
  const Placement target =
      best ? *best : placement_->choose_on_demand(provider_, config_, query);
  begin_voluntary(virt::MigrationClass::kPlanned, target);
}

void CloudScheduler::on_voluntary_dest_failed(virt::MigrationClass cls) {
  if (cls == virt::MigrationClass::kReverse) {
    schedule_hour_check();  // try again next billing hour
    return;
  }
  // Planned: the cheaper market evaporated (or the destination was revoked
  // before adoption); fall back through placement if the trigger still holds.
  if (state_ == State::kOnSpot && holding_ && !forced_ &&
      effective_spot_price(provider_, holding_->market, units_needed()) >
          od_threshold()) {
    begin_planned();
  }
}

// ---------------------------------------------------------------------------
// Reverse-migration hour checks
// ---------------------------------------------------------------------------

void CloudScheduler::schedule_hour_check() {
  if (state_ != State::kOnDemand || !holding_) return;
  hour_check_event_.cancel();
  SimTime check_at =
      next_instance_hour_boundary() -
      lead(virt::MigrationClass::kReverse,
           provider_.allocation_latency(source_market().region).spot_mean_s);
  while (check_at <= clock_.now()) check_at += sim::kHour;
  hour_check_event_ = clock_.at(check_at, [this] {
    const BandRefresh refresh(*this);
    hour_check_event_.reset();
    on_hour_check();
  });
}

void CloudScheduler::on_hour_check() {
  if (state_ != State::kOnDemand || migration_ || forced_ || !holding_) return;
  trace(obs::EventKind::kBillingHourTick, obs::code::kOnDemand,
        [&](obs::TraceEvent& e) {
          e.instance = holding_->id;
          e.market = holding_->market.str();
        });
  const double threshold = od_threshold() * config_.reverse_price_margin;
  const auto best = placement_->choose_spot(provider_, config_,
                                            placement_query(threshold));
  if (best) {
    begin_voluntary(virt::MigrationClass::kReverse, *best);
  } else {
    schedule_hour_check();
  }
}

// ---------------------------------------------------------------------------
// Revocation warnings
// ---------------------------------------------------------------------------

void CloudScheduler::handle_revocations(InstanceId instance) {
  provider_.set_revocation_handler(instance, [this](InstanceId warned, SimTime t_term) {
    const BandRefresh refresh(*this);
    on_revocation_warning(warned, t_term);
  });
}

void CloudScheduler::on_revocation_warning(InstanceId instance, SimTime t_term) {
  // A migration *destination* got warned before adoption: walk away from it
  // and retry through the normal trigger policy.
  if (migration_ && instance == migration_->dest) {
    const auto cls = migration_->cls;
    abandon(AbandonReason::kDestRevoked);
    on_voluntary_dest_failed(cls);
    return;
  }
  if (!holding_ || instance != holding_->id) return;  // stale warning

  if (!config_.on_demand_allowed()) {
    // Pure-spot baseline: checkpoint, go down, wait for the market.
    const auto timings = planner_.plan(virt::MigrationClass::kForced, spec_,
                                       holding_->market.region, holding_->market.region);
    const SimTime t_stop = std::max(clock_.now(),
                                    t_term - sim::from_seconds(timings.flush_s));
    clock_.at(t_stop, [this] {
      const BandRefresh refresh(*this);
      if (service_.is_up()) {
        service_.begin_outage(clock_.now(), workload::OutageCause::kSpotLoss);
      }
    });
    clock_.at(t_term, [this] {
      const BandRefresh refresh(*this);
      holding_.reset();
      state_ = State::kDown;
      pure_spot_reacquire();
    });
    return;
  }

  // If a voluntary transfer is already in flight and will finish before the
  // axe falls, just let it finish.
  if (migration_ && migration_->transfer_started &&
      migration_->switchover_at + sim::from_seconds(migration_->timings.downtime_s) <=
          t_term) {
    return;
  }

  begin_forced(t_term);
}

// ---------------------------------------------------------------------------
// Pure-spot baseline
// ---------------------------------------------------------------------------

void CloudScheduler::pure_spot_reacquire() {
  if (pending_acquire_ != cloud::kInvalidInstance) return;
  const MarketId& home = config_.home_market;
  const double bid = bidding_->bid_for(provider_, config_, home, clock_.now());
  if (provider_.price(home) > bid) return;  // wait for a price-change event
  pending_acquire_ = owned(provider_.request_spot(
      home, bid,
      [this, home](InstanceId iid) {
        const BandRefresh refresh(*this);
        pending_acquire_ = cloud::kInvalidInstance;
        if (!service_live_ || service_.is_up()) {
          adopt(iid, home, /*on_demand=*/false);
          return;
        }
        // Restoring after an outage: resume from the checkpoint volume.
        const auto timings =
            planner_.plan(virt::MigrationClass::kForced, spec_, home.region, home.region);
        const SimTime restore = jittered(timings.restore_s);
        const SimTime degraded = jittered(timings.degraded_s);
        clock_.after(restore, [this, iid, home, degraded] {
          const BandRefresh refresh_after_restore(*this);
          service_back_up(degraded);
          adopt(iid, home, /*on_demand=*/false);
        });
      },
      [this, home](cloud::AllocFailure reason) {
        const BandRefresh refresh(*this);
        pending_acquire_ = cloud::kInvalidInstance;
        trace(obs::EventKind::kSpotRequestFailed, obs::code::kNone,
              [&](obs::TraceEvent& e) { e.market = config_.home_market.str(); });
        if (reason == cloud::AllocFailure::kInsufficientCapacity) {
          // Injected capacity fault: the price is fine, so no price-change
          // trigger will come — back off and retry the same market.
          on_acquire_capacity_failed(home, /*was_spot=*/false);
        }
        // Price failure: wait for the next price change; on_price_change
        // retries.
      }));
}

// ---------------------------------------------------------------------------

void CloudScheduler::finalize(SimTime horizon) {
  if (service_live_) {
    service_.finalize(horizon);
  } else {
    // Never came up (e.g. pure-spot market above bid for the whole run):
    // the whole horizon is an outage.
    service_.go_live(0);
    service_.begin_outage(0, workload::OutageCause::kSpotLoss);
    service_.finalize(horizon);
  }
}

}  // namespace spothost::sched

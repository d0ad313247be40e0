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

}  // namespace

void CloudScheduler::trace(obs::TraceEvent event) {
  counters_.on_event(event);
  if (auto* tracer = clock_.tracer(); tracer != nullptr && tracer->enabled()) {
    tracer->emit(event);
  }
}

obs::TraceEvent CloudScheduler::trace_event(obs::EventKind kind,
                                            std::uint8_t code) const {
  obs::TraceEvent e;
  e.t = clock_.now();
  e.kind = kind;
  e.code = code;
  return e;
}

CloudScheduler::CloudScheduler(sim::Clock& clock,
                               cloud::CloudProvider& provider,
                               workload::ServiceEndpoint& service,
                               SchedulerConfig config, sim::RngStream timing_rng)
    : CloudScheduler(clock, provider,
                     std::make_unique<MarketWatcher>(clock, provider),
                     /*shared_watcher=*/nullptr, service, std::move(config),
                     std::move(timing_rng)) {}

CloudScheduler::CloudScheduler(sim::Clock& clock,
                               cloud::CloudProvider& provider, MarketWatcher& watcher,
                               workload::ServiceEndpoint& service,
                               SchedulerConfig config, sim::RngStream timing_rng)
    : CloudScheduler(clock, provider, /*owned_watcher=*/nullptr, &watcher,
                     service, std::move(config), std::move(timing_rng)) {}

CloudScheduler::CloudScheduler(sim::Clock& clock,
                               cloud::CloudProvider& provider,
                               std::unique_ptr<MarketWatcher> owned_watcher,
                               MarketWatcher* shared_watcher,
                               workload::ServiceEndpoint& service,
                               SchedulerConfig config, sim::RngStream timing_rng)
    : clock_(clock),
      provider_(provider),
      service_(service),
      config_(std::move(config)),
      rng_(std::move(timing_rng)),
      spec_(config_.vm_spec),
      owned_watcher_(std::move(owned_watcher)),
      watcher_(owned_watcher_ ? *owned_watcher_ : *shared_watcher) {
  config_.validate();
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
  MigrationHost& host = *this;  // private base: convert in class scope
  engine_ = std::make_unique<MigrationEngine>(clock_, provider_, service_,
                                              host, config_, spec_, rng_);
  listener_ = watcher_.add_listener(
      static_cast<MarketWatcher::TriggerListener*>(this));
}

CloudScheduler::~CloudScheduler() {
  if (listener_ != MarketWatcher::kInvalidListener) {
    watcher_.remove_listener(listener_);
  }
}

void CloudScheduler::set_owner_tag(std::uint64_t owner) {
  owner_tag_ = owner;
  engine_->set_owner_tag(owner);
}

int CloudScheduler::units_needed() const {
  if (config_.capacity_units_override > 0) return config_.capacity_units_override;
  return cloud::type_info(config_.home_market.size).capacity_units;
}

double CloudScheduler::od_threshold() const {
  const std::string& region =
      holding_ ? holding_->market.region : config_.home_market.region;
  return effective_on_demand_price(provider_, region, config_.home_market.size);
}

PlacementQuery CloudScheduler::placement_query(double threshold) const {
  PlacementQuery query;
  query.units_needed = units_needed();
  query.max_effective_price = threshold;
  if (holding_ && !holding_->on_demand) query.exclude = holding_->market;
  query.avoid = avoid_markets_;
  query.fallback_region =
      holding_ ? holding_->market.region : config_.home_market.region;
  query.now = clock_.now();
  return query;
}

SimTime CloudScheduler::planned_lead() const {
  const std::string& region =
      holding_ ? holding_->market.region : config_.home_market.region;
  const auto lat = provider_.allocation_latency(region);
  const auto t =
      engine_->planner().plan(virt::MigrationClass::kPlanned, spec_, region, region);
  return sim::from_seconds(lat.on_demand_mean_s * kLeadSafetyFactor + t.prepare_s +
                           t.downtime_s) +
         kLeadSlack;
}

SimTime CloudScheduler::reverse_lead() const {
  const std::string& region =
      holding_ ? holding_->market.region : config_.home_market.region;
  const auto lat = provider_.allocation_latency(region);
  const auto t =
      engine_->planner().plan(virt::MigrationClass::kReverse, spec_, region, region);
  return sim::from_seconds(lat.spot_mean_s * kLeadSafetyFactor + t.prepare_s +
                           t.downtime_s) +
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

void CloudScheduler::on_trigger(const MarketWatcher::Trigger& trigger) {
  switch (trigger.kind) {
    case MarketWatcher::TriggerKind::kPriceChange:
      on_price_change(trigger.market, trigger.price);
      break;
    case MarketWatcher::TriggerKind::kHourBoundary:
      hour_check_event_.reset();
      on_hour_check();
      break;
    case MarketWatcher::TriggerKind::kRevocation:
      on_revocation_warning(trigger.instance, trigger.t_term);
      break;
  }
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
    pending_acquire_ = provider_.request_spot(
        target, best->bid,
        [this, target](InstanceId iid) {
          const BandRefresh refresh(*this);
          pending_acquire_ = cloud::kInvalidInstance;
          adopt(iid, target, /*on_demand=*/false);
        },
        [this, target](cloud::AllocFailure reason) {
          const BandRefresh refresh(*this);
          pending_acquire_ = cloud::kInvalidInstance;
          auto e = trace_event(obs::EventKind::kSpotRequestFailed, obs::code::kNone);
          e.market = target.str();
          trace(std::move(e));
          if (reason == cloud::AllocFailure::kInsufficientCapacity) {
            on_acquire_capacity_failed(target, /*was_spot=*/true);
            return;
          }
          acquire_initial();  // price moved; re-evaluate (likely on-demand now)
        });
    if (owner_tag_ != cloud::kNoOwner) {
      provider_.set_instance_owner(pending_acquire_, owner_tag_);
    }
    return;
  }
  const Placement od = placement_->choose_on_demand(provider_, config_, query);
  pending_acquire_ = provider_.request_on_demand(
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
      });
  if (owner_tag_ != cloud::kNoOwner) {
    provider_.set_instance_owner(pending_acquire_, owner_tag_);
  }
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
  const int attempt = ++acquire_attempts_;
  const RetryPolicy& retry = config_.retry;
  double delay_s = 0.0;
  if (retry.retries_enabled() && attempt <= retry.max_attempts) {
    delay_s = retry.backoff_s(attempt);
  } else if (retry.graceful_degradation) {
    // Retry budget spent: announce degraded mode once, then slow-poll at the
    // backoff cap until something is granted.
    if (!degraded_acquire_) {
      degraded_acquire_ = true;
      auto e = trace_event(obs::EventKind::kDegradedMode,
                           obs::code::kDegradeSlowRetry);
      e.market = market.str();
      trace(std::move(e));
    }
    delay_s = retry.backoff_max_s;
  } else {
    // Retries off, no degradation: acquisition is abandoned and the service
    // stays down — the retries-off ablation arm measures exactly this.
    SPOTHOST_LOG(sim::LogLevel::kWarn, clock_.now(),
                 "acquisition in " << market.str()
                     << " failed (capacity); retries disabled, giving up");
    return;
  }
  {
    auto e = trace_event(obs::EventKind::kRetryScheduled, obs::code::kRetryAcquire);
    e.value = static_cast<double>(attempt);
    e.aux = delay_s;
    e.market = market.str();
    trace(std::move(e));
  }
  clock_.after(sim::from_seconds(delay_s), [this] {
    const BandRefresh refresh(*this);
    if (pending_acquire_ != cloud::kInvalidInstance) return;
    if (state_ != State::kAcquiring && state_ != State::kDown) return;
    if (engine_->active()) return;
    acquire_initial();
  });
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
    watcher_.arm_revocation(listener_, instance);
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

// ---------------------------------------------------------------------------
// Price triggers
// ---------------------------------------------------------------------------

void CloudScheduler::on_price_change(const MarketId& market, double new_price) {
  (void)new_price;
  if (engine_->forced_active()) return;  // the forced flow owns the next transitions

  // Pure-spot reacquisition: the market dipped back below the bid (also
  // covers an initial acquisition that has been waiting for the price).
  if (!config_.on_demand_allowed() &&
      (state_ == State::kDown || state_ == State::kAcquiring)) {
    pure_spot_reacquire();
    return;
  }

  if (state_ != State::kOnSpot || !holding_ || market != holding_->market) return;
  if (!bidding_->plans_migrations(config_) || !config_.on_demand_allowed()) return;

  const double eff = effective_spot_price(provider_, market, units_needed());
  const double threshold = od_threshold();
  const bool above = eff > threshold;
  // Edge-triggered: one event per crossing of the on-demand threshold, not
  // one per price tick.
  if (crossing_.observe(above) != CrossingDetector::Edge::kNone) {
    auto e = trace_event(obs::EventKind::kPriceCrossing,
                         above ? obs::code::kAbove : obs::code::kBelow);
    e.instance = holding_->id;
    e.value = eff;
    e.aux = threshold;
    e.market = market.str();
    trace(std::move(e));
  }
  if (above) {
    maybe_schedule_planned();
  } else {
    cancel_scheduled_planned();
    if (engine_->voluntary_class() == virt::MigrationClass::kPlanned &&
        !engine_->transfer_started() && config_.cancel_planned_on_price_drop) {
      engine_->abandon(AbandonReason::kPriceRecovered);
    }
  }
}

PriceBand CloudScheduler::price_band(const MarketId& market) const {
  // Mirrors on_price_change branch by branch. Every early return there is
  // "never wake"; pure spot while acquiring or down wakes on every step,
  // because the bid may depend on now.
  if (engine_->forced_active()) return PriceBand::everything();
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
    const bool abandonable =
        engine_->voluntary_class() == virt::MigrationClass::kPlanned &&
        !engine_->transfer_started() && config_.cancel_planned_on_price_drop;
    if (!timer_pending && !abandonable) return PriceBand{-kInf, edge};
  } else if (timer_pending || engine_->active()) {
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
  if (engine_->active() || planned_begin_event_.valid()) return;
  if (config_.planned_timing == PlannedTiming::kImmediate) {
    begin_planned();
    return;
  }
  const SimTime begin_at = next_instance_hour_boundary() - planned_lead();
  if (begin_at <= clock_.now()) {
    begin_planned();
    return;
  }
  planned_begin_event_ = clock_.at(begin_at, [this] {
    const BandRefresh refresh(*this);
    planned_begin_event_.reset();
    if (state_ != State::kOnSpot || engine_->active() || !holding_) return;
    const double eff =
        effective_spot_price(provider_, holding_->market, units_needed());
    if (eff > od_threshold()) begin_planned();
  });
}

void CloudScheduler::cancel_scheduled_planned() { planned_begin_event_.cancel(); }

void CloudScheduler::begin_planned() {
  if (state_ != State::kOnSpot || engine_->active() || !holding_) return;
  const double threshold = od_threshold() * config_.reverse_price_margin;
  const auto query = placement_query(threshold);
  const auto best = placement_->choose_spot(provider_, config_, query);
  const Placement target =
      best ? *best : placement_->choose_on_demand(provider_, config_, query);
  engine_->begin_voluntary(virt::MigrationClass::kPlanned, target, holding_->id);
}

void CloudScheduler::begin_reverse(const Placement& target) {
  if (state_ != State::kOnDemand || engine_->active() || !holding_) return;
  engine_->begin_voluntary(virt::MigrationClass::kReverse, target, holding_->id);
}

void CloudScheduler::on_voluntary_dest_failed(virt::MigrationClass cls) {
  if (cls == virt::MigrationClass::kReverse) {
    schedule_hour_check();  // try again next billing hour
    return;
  }
  // Planned: the cheaper market evaporated (or the destination was revoked
  // before adoption); fall back through placement if the trigger still holds.
  if (state_ == State::kOnSpot && holding_ && !engine_->forced_active() &&
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
  SimTime check_at = next_instance_hour_boundary() - reverse_lead();
  while (check_at <= clock_.now()) check_at += sim::kHour;
  hour_check_event_ = watcher_.schedule_hour_tick(listener_, check_at);
}

void CloudScheduler::on_hour_check() {
  if (state_ != State::kOnDemand || engine_->active() || !holding_) return;
  {
    auto e = trace_event(obs::EventKind::kBillingHourTick, obs::code::kOnDemand);
    e.instance = holding_->id;
    e.market = holding_->market.str();
    trace(std::move(e));
  }
  const double threshold = od_threshold() * config_.reverse_price_margin;
  const auto best = placement_->choose_spot(provider_, config_,
                                            placement_query(threshold));
  if (best) {
    begin_reverse(*best);
  } else {
    schedule_hour_check();
  }
}

// ---------------------------------------------------------------------------
// Revocation warnings
// ---------------------------------------------------------------------------

void CloudScheduler::on_revocation_warning(InstanceId instance, SimTime t_term) {
  // A migration *destination* got warned before adoption: walk away from it
  // and retry through the normal trigger policy.
  if (const auto cls = engine_->dest_warned(instance)) {
    on_voluntary_dest_failed(*cls);
    return;
  }
  if (!holding_ || instance != holding_->id) return;  // stale warning

  if (!config_.on_demand_allowed()) {
    // Pure-spot baseline: checkpoint, go down, wait for the market.
    const auto timings =
        engine_->planner().plan(virt::MigrationClass::kForced, spec_,
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
  if (const auto completion = engine_->voluntary_completion_time();
      completion && *completion <= t_term) {
    return;
  }

  engine_->begin_forced(t_term, holding_->id, holding_->market);
}

// ---------------------------------------------------------------------------
// MigrationHost notifications
// ---------------------------------------------------------------------------

void CloudScheduler::on_forced_begin() { cancel_scheduled_planned(); }

void CloudScheduler::on_source_lost() {
  holding_.reset();
  state_ = State::kDown;
}

void CloudScheduler::on_source_released() { hour_check_event_.cancel(); }

// ---------------------------------------------------------------------------
// Pure-spot baseline
// ---------------------------------------------------------------------------

void CloudScheduler::pure_spot_reacquire() {
  if (pending_acquire_ != cloud::kInvalidInstance) return;
  const MarketId& home = config_.home_market;
  const double bid = bidding_->bid_for(provider_, config_, home, clock_.now());
  if (provider_.price(home) > bid) return;  // wait for a price-change event
  pending_acquire_ = provider_.request_spot(
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
            engine_->planner().plan(virt::MigrationClass::kForced, spec_,
                                    home.region, home.region);
        const SimTime restore = engine_->jittered(timings.restore_s);
        const SimTime degraded = engine_->jittered(timings.degraded_s);
        clock_.after(restore, [this, iid, home, degraded] {
          const BandRefresh refresh_after_restore(*this);
          if (!service_.is_up()) {
            service_.end_outage(clock_.now(), degraded > 0);
            if (degraded > 0) {
              clock_.after(degraded, [this] {
                const BandRefresh refresh_after_degraded(*this);
                service_.end_degraded(clock_.now());
              });
            }
          }
          adopt(iid, home, /*on_demand=*/false);
        });
      },
      [this, home](cloud::AllocFailure reason) {
        const BandRefresh refresh(*this);
        pending_acquire_ = cloud::kInvalidInstance;
        auto e = trace_event(obs::EventKind::kSpotRequestFailed, obs::code::kNone);
        e.market = config_.home_market.str();
        trace(std::move(e));
        if (reason == cloud::AllocFailure::kInsufficientCapacity) {
          // Injected capacity fault: the price is fine, so no price-change
          // trigger will come — back off and retry the same market.
          on_acquire_capacity_failed(home, /*was_spot=*/false);
        }
        // Price failure: wait for the next price change; on_price_change
        // retries.
      });
  if (owner_tag_ != cloud::kNoOwner) {
    provider_.set_instance_owner(pending_acquire_, owner_tag_);
  }
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

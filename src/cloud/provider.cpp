#include "cloud/provider.hpp"

#include <algorithm>
#include <stdexcept>

#include "faults/injector.hpp"
#include "obs/sink.hpp"
#include "simcore/logging.hpp"

namespace spothost::cloud {

namespace {

obs::TraceEvent provider_event(obs::EventKind kind, sim::SimTime t,
                               const MarketId& market) {
  obs::TraceEvent e;
  e.t = t;
  e.kind = kind;
  e.market = market.str();
  return e;
}

}  // namespace

CloudProvider::CloudProvider(sim::Clock& clock,
                             const sim::RngFactory& rng_factory,
                             sim::SimTime grace_period)
    : clock_(clock), rng_factory_(rng_factory), grace_(grace_period) {
  if (grace_ < 0) throw std::invalid_argument("CloudProvider: negative grace period");
}

void CloudProvider::add_market(MarketId id, trace::PriceTrace price_trace,
                               double od_price) {
  if (started_) throw std::logic_error("CloudProvider: add_market after start");
  if (markets_.contains(id)) {
    throw std::invalid_argument("CloudProvider: duplicate market " + id.str());
  }
  auto market_ptr = std::make_unique<SpotMarket>(clock_, id,
                                                 std::move(price_trace), od_price);
  adopt_market(std::move(id), std::move(market_ptr));
}

void CloudProvider::add_live_market(MarketId id, double od_price) {
  if (started_) throw std::logic_error("CloudProvider: add_live_market after start");
  if (markets_.contains(id)) {
    throw std::invalid_argument("CloudProvider: duplicate market " + id.str());
  }
  auto market_ptr = std::make_unique<SpotMarket>(clock_, id, od_price);
  adopt_market(std::move(id), std::move(market_ptr));
}

void CloudProvider::adopt_market(MarketId id, std::unique_ptr<SpotMarket> market_ptr) {
  market_ptr->subscribe(static_cast<SpotMarket::PriceListener*>(this));
  markets_.emplace(id, std::move(market_ptr));
  market_order_.push_back(std::move(id));
}

void CloudProvider::set_allocation_latency(const std::string& region,
                                           AllocationLatency latency) {
  latency_by_region_[region] = latency;
}

AllocationLatency CloudProvider::allocation_latency(const std::string& region) const {
  const auto it = latency_by_region_.find(region);
  return it != latency_by_region_.end() ? it->second : AllocationLatency{};
}

void CloudProvider::start() {
  if (started_) throw std::logic_error("CloudProvider::start called twice");
  started_ = true;
  for (const auto& id : market_order_) {
    markets_.at(id)->start();
  }
}

SpotMarket& CloudProvider::market(const MarketId& id) {
  const auto it = markets_.find(id);
  if (it == markets_.end()) {
    throw std::out_of_range("CloudProvider: unknown market " + id.str());
  }
  return *it->second;
}

const SpotMarket& CloudProvider::market(const MarketId& id) const {
  const auto it = markets_.find(id);
  if (it == markets_.end()) {
    throw std::out_of_range("CloudProvider: unknown market " + id.str());
  }
  return *it->second;
}

bool CloudProvider::has_market(const MarketId& id) const {
  return markets_.contains(id);
}

std::vector<MarketId> CloudProvider::all_markets() const {
  return market_order_;
}

std::vector<MarketId> CloudProvider::markets_in_region(const std::string& region) const {
  std::vector<MarketId> out;
  for (const auto& id : market_order_) {
    if (id.region == region) out.push_back(id);
  }
  return out;
}

std::vector<std::string> CloudProvider::regions() const {
  std::vector<std::string> out;
  for (const auto& id : market_order_) {
    if (std::find(out.begin(), out.end(), id.region) == out.end()) {
      out.push_back(id.region);
    }
  }
  return out;
}

InstanceId CloudProvider::request_on_demand(const MarketId& id, ReadyCallback on_ready,
                                            FailCallback on_fail) {
  (void)market(id);  // validate
  const InstanceId iid = next_instance_++;
  if (auto* tracer = clock_.tracer(); tracer && tracer->enabled()) {
    auto e = provider_event(obs::EventKind::kBidPlaced, clock_.now(), id);
    e.code = obs::code::kOnDemand;
    e.instance = iid;
    e.value = od_price(id);
    tracer->emit(e);
  }
  Instance inst;
  inst.id = iid;
  inst.market = id;
  inst.mode = BillingMode::kOnDemand;
  inst.requested_at = clock_.now();
  instances_.emplace(iid, inst);

  const AllocationLatency lat = allocation_latency(id.region);
  auto& rng = latency_rng_[id.region];
  if (!rng) {
    rng = std::make_unique<sim::RngStream>(
        rng_factory_.stream("alloc-latency/" + id.region));
  }
  const double delay_s = rng->lognormal_mean_cv(lat.on_demand_mean_s, lat.on_demand_cv);

  Pending pending;
  pending.on_ready = std::move(on_ready);
  pending.on_fail = std::move(on_fail);
  pending.event = clock_.after(sim::from_seconds(delay_s),
                                    [this, iid] { complete_grant(iid); });
  pending_.emplace(iid, std::move(pending));
  return iid;
}

InstanceId CloudProvider::request_spot(const MarketId& id, double bid,
                                       ReadyCallback on_ready, FailCallback on_fail) {
  if (bid <= 0) throw std::invalid_argument("request_spot: bid must be > 0");
  (void)market(id);
  const InstanceId iid = next_instance_++;
  Instance inst;
  inst.id = iid;
  inst.market = id;
  inst.mode = BillingMode::kSpot;
  inst.bid = bid;
  inst.requested_at = clock_.now();
  instances_.emplace(iid, inst);
  if (auto* tracer = clock_.tracer(); tracer && tracer->enabled()) {
    auto e = provider_event(obs::EventKind::kBidPlaced, clock_.now(), id);
    e.code = obs::code::kSpot;
    e.instance = iid;
    e.value = bid;
    e.aux = price(id);
    tracer->emit(e);
  }

  const AllocationLatency lat = allocation_latency(id.region);
  auto& rng = latency_rng_[id.region];
  if (!rng) {
    rng = std::make_unique<sim::RngStream>(
        rng_factory_.stream("alloc-latency/" + id.region));
  }
  const double delay_s = rng->lognormal_mean_cv(lat.spot_mean_s, lat.spot_cv);

  Pending pending;
  pending.on_ready = std::move(on_ready);
  pending.on_fail = std::move(on_fail);
  pending.event = clock_.after(sim::from_seconds(delay_s),
                                    [this, iid] { complete_grant(iid); });
  pending_.emplace(iid, std::move(pending));
  return iid;
}

void CloudProvider::complete_grant(InstanceId iid) {
  auto pit = pending_.find(iid);
  if (pit == pending_.end()) return;  // cancelled
  Instance& inst = instance_mut(iid);
  auto* injector = clock_.fault_injector();

  // Injected allocation timeout: the grant takes alloc_timeout_extra_s
  // longer (once per request); price and capacity are re-checked at the new
  // completion time, so a delayed spot grant can still be price-rejected.
  if (injector != nullptr && !pit->second.delayed &&
      injector->should_inject(faults::FaultKind::kAllocTimeout,
                              inst.market.str(), iid)) {
    pit->second.delayed = true;
    pit->second.event =
        clock_.after(sim::from_seconds(injector->plan().alloc_timeout_extra_s),
                          [this, iid] { complete_grant(iid); });
    return;
  }

  Pending p = std::move(pit->second);
  pending_.erase(pit);

  // Injected capacity error: the provider has no server to hand out. Only
  // requests that supplied a failure path are eligible — an unobservable
  // failure would silently strand the requester.
  if (p.on_fail && injector != nullptr &&
      injector->should_inject(faults::FaultKind::kAllocInsufficientCapacity,
                              inst.market.str(), iid)) {
    inst.state = InstanceState::kTerminated;
    SPOTHOST_LOG(sim::LogLevel::kDebug, clock_.now(),
                 "request " << iid << " failed: insufficient capacity (injected)");
    p.on_fail(AllocFailure::kInsufficientCapacity);
    return;
  }

  if (inst.mode == BillingMode::kSpot) {
    const double current = price(inst.market);
    if (current > inst.bid) {
      inst.state = InstanceState::kTerminated;
      SPOTHOST_LOG(sim::LogLevel::kDebug, clock_.now(),
                   "spot request " << iid << " rejected: price " << current
                                   << " > bid " << inst.bid);
      if (p.on_fail) p.on_fail(AllocFailure::kPriceAboveBid);
      return;
    }
  }
  inst.state = InstanceState::kRunning;
  inst.launch = clock_.now();
  if (inst.mode == BillingMode::kSpot) {
    running_spot_[inst.market].emplace(inst.bid, iid);
  }
  if (auto* tracer = clock_.tracer(); tracer && tracer->enabled()) {
    auto e = provider_event(obs::EventKind::kAcquisition, clock_.now(),
                            inst.market);
    e.instance = iid;
    if (inst.mode == BillingMode::kSpot) {
      e.code = obs::code::kSpot;
      e.value = price(inst.market);
      e.aux = inst.bid;
    } else {
      e.code = obs::code::kOnDemand;
      e.value = od_price(inst.market);
    }
    tracer->emit(e);
  }
  if (p.on_ready) p.on_ready(iid);
}

void CloudProvider::cancel_request(InstanceId id) {
  const auto pit = pending_.find(id);
  if (pit == pending_.end()) return;
  pit->second.event.cancel();
  pending_.erase(pit);
  instance_mut(id).state = InstanceState::kTerminated;
}

void CloudProvider::set_instance_owner(InstanceId id, std::uint64_t owner) {
  instance_mut(id).owner = owner;
}

void CloudProvider::set_revocation_handler(InstanceId id, RevocationHandler handler) {
  const Instance& inst = instance(id);
  if (inst.mode != BillingMode::kSpot) {
    throw std::logic_error("set_revocation_handler: not a spot instance");
  }
  revocation_handlers_[id] = std::move(handler);
}

void CloudProvider::terminate(InstanceId id) {
  Instance& inst = instance_mut(id);
  if (inst.state == InstanceState::kPending) {
    cancel_request(id);
    return;
  }
  if (inst.state == InstanceState::kTerminated) return;
  complete_lease(inst, TerminationCause::kCustomer, clock_.now());
}

const Instance& CloudProvider::instance(InstanceId id) const {
  const auto it = instances_.find(id);
  if (it == instances_.end()) {
    throw std::out_of_range("CloudProvider: unknown instance");
  }
  return it->second;
}

Instance& CloudProvider::instance_mut(InstanceId id) {
  const auto it = instances_.find(id);
  if (it == instances_.end()) {
    throw std::out_of_range("CloudProvider: unknown instance");
  }
  return it->second;
}

void CloudProvider::on_price_change(const MarketId& id, double new_price) {
  if (auto* tracer = clock_.tracer(); tracer && tracer->enabled()) {
    auto e = provider_event(obs::EventKind::kPriceChange, clock_.now(), id);
    e.value = new_price;
    tracer->emit(e);
  }
  // Warn those whose bid the price now exceeds: the low-bid prefix of this
  // market's running spot index, so a step costs the instances it revokes,
  // not the market's size. Snapshot the ids: handlers may mutate state.
  std::vector<InstanceId> to_warn;
  if (const auto rit = running_spot_.find(id); rit != running_spot_.end()) {
    for (auto it = rit->second.begin(); it != rit->second.end() && it->first < new_price;
         ++it) {
      to_warn.push_back(it->second);
    }
  }
  std::sort(to_warn.begin(), to_warn.end());  // deterministic order
  for (const InstanceId iid : to_warn) {
    Instance& inst = instance_mut(iid);
    drop_running_spot(inst);
    inst.state = InstanceState::kWarned;
    inst.termination_time = clock_.now() + grace_;
    SPOTHOST_LOG(sim::LogLevel::kDebug, clock_.now(),
                 "revocation warning for " << iid << " in " << id.str()
                                           << ", termination at "
                                           << sim::format_time(inst.termination_time));

    // Injected warning-delivery faults. A dropped warning reaches the
    // customer only at termination time (zero effective grace); a delayed
    // one arrives warning_delay_s late, capped at t_term. The delivery
    // event is scheduled BEFORE the termination event so that, at equal
    // timestamps, FIFO dispatch hands the customer the warning before the
    // provider pulls the server. Instances without a registered handler are
    // never faulted — nobody would observe the difference.
    const auto hit = revocation_handlers_.find(iid);
    RevocationHandler handler =
        (hit != revocation_handlers_.end()) ? hit->second : nullptr;
    sim::SimTime deliver_at = clock_.now();
    if (handler) {
      if (auto* injector = clock_.fault_injector()) {
        if (injector->should_inject(faults::FaultKind::kWarningDropped,
                                    id.str(), iid)) {
          deliver_at = inst.termination_time;
        } else if (injector->should_inject(faults::FaultKind::kWarningDelayed,
                                           id.str(), iid)) {
          deliver_at = std::min(
              clock_.now() +
                  sim::from_seconds(injector->plan().warning_delay_s),
              inst.termination_time);
        }
      }
      if (deliver_at > clock_.now()) {
        clock_.at(deliver_at,
                       [handler, iid, t_term = inst.termination_time] {
                         handler(iid, t_term);
                       });
      }
    }

    clock_.at(inst.termination_time, [this, iid] {
      Instance& victim = instance_mut(iid);
      if (victim.state != InstanceState::kWarned) return;  // customer beat us
      complete_lease(victim, TerminationCause::kProviderRevoked, clock_.now());
    });
    if (auto* tracer = clock_.tracer(); tracer && tracer->enabled()) {
      auto e = provider_event(obs::EventKind::kRevocationWarning,
                              clock_.now(), id);
      e.instance = iid;
      e.value = new_price;
      e.aux = sim::to_seconds(inst.termination_time);
      tracer->emit(e);
    }
    if (handler && deliver_at == clock_.now()) {
      handler(iid, inst.termination_time);
    }
  }
}

void CloudProvider::drop_running_spot(const Instance& inst) {
  const auto rit = running_spot_.find(inst.market);
  if (rit != running_spot_.end()) rit->second.erase({inst.bid, inst.id});
}

void CloudProvider::complete_lease(Instance& inst, TerminationCause cause,
                                   sim::SimTime end) {
  if (inst.mode == BillingMode::kSpot && inst.state == InstanceState::kRunning) {
    drop_running_spot(inst);
  }
  BillingRecord record;
  record.instance_id = inst.id;
  record.market = inst.market;
  record.mode = inst.mode;
  record.launch = inst.launch;
  record.end = end;
  record.cause = cause;
  record.owner = inst.owner;
  if (inst.mode == BillingMode::kOnDemand) {
    record.cost = on_demand_cost(od_price(inst.market), inst.launch, end);
  } else {
    record.cost =
        spot_cost(market(inst.market).billable_trace(end), inst.launch, end, cause);
  }
  inst.state = InstanceState::kTerminated;
  revocation_handlers_.erase(inst.id);
  ledger_.add(std::move(record));
}

void CloudProvider::finalize(sim::SimTime at) {
  // Cancel outstanding requests, then bill running instances.
  std::vector<InstanceId> pending_ids;
  pending_ids.reserve(pending_.size());
  for (const auto& [iid, p] : pending_) {
    (void)p;
    pending_ids.push_back(iid);
  }
  std::sort(pending_ids.begin(), pending_ids.end());
  for (const InstanceId iid : pending_ids) cancel_request(iid);

  std::vector<InstanceId> running;
  for (const auto& [iid, inst] : instances_) {
    if (inst.state == InstanceState::kRunning || inst.state == InstanceState::kWarned) {
      running.push_back(iid);
    }
  }
  std::sort(running.begin(), running.end());
  for (const InstanceId iid : running) {
    complete_lease(instance_mut(iid), TerminationCause::kCustomer, at);
  }
}

}  // namespace spothost::cloud

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
  if (has_market(id)) {
    throw std::invalid_argument("CloudProvider: duplicate market " + id.str());
  }
  adopt_market(std::make_unique<SpotMarket>(clock_, std::move(id),
                                            std::move(price_trace), od_price));
}

void CloudProvider::add_live_market(MarketId id, double od_price) {
  if (started_) throw std::logic_error("CloudProvider: add_live_market after start");
  if (has_market(id)) {
    throw std::invalid_argument("CloudProvider: duplicate market " + id.str());
  }
  adopt_market(std::make_unique<SpotMarket>(clock_, std::move(id), od_price));
}

void CloudProvider::adopt_market(std::unique_ptr<SpotMarket> market_ptr) {
  market_ptr->index_ = markets_.size();
  market_ptr->subscribe(static_cast<SpotMarket::PriceListener*>(this));
  index_by_id_.emplace(market_ptr->id(), market_ptr->index_);
  markets_.push_back(std::move(market_ptr));
  running_spot_.emplace_back();
}

std::size_t CloudProvider::index_of(const MarketId& id) const {
  const auto it = index_by_id_.find(id);
  if (it == index_by_id_.end()) {
    throw std::out_of_range("CloudProvider: unknown market " + id.str());
  }
  return it->second;
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
  for (const auto& m : markets_) m->start();
}

SpotMarket& CloudProvider::market(const MarketId& id) {
  return *markets_[index_of(id)];
}

const SpotMarket& CloudProvider::market(const MarketId& id) const {
  return *markets_[index_of(id)];
}

bool CloudProvider::has_market(const MarketId& id) const {
  return index_by_id_.contains(id);
}

std::vector<MarketId> CloudProvider::all_markets() const {
  std::vector<MarketId> out;
  out.reserve(markets_.size());
  for (const auto& m : markets_) out.push_back(m->id());
  return out;
}

std::vector<MarketId> CloudProvider::markets_in_region(const std::string& region) const {
  std::vector<MarketId> out;
  for (const auto& m : markets_) {
    if (m->id().region == region) out.push_back(m->id());
  }
  return out;
}

std::vector<std::string> CloudProvider::regions() const {
  std::vector<std::string> out;
  for (const auto& m : markets_) {
    if (std::find(out.begin(), out.end(), m->id().region) == out.end()) {
      out.push_back(m->id().region);
    }
  }
  return out;
}

InstanceId CloudProvider::request_on_demand(const MarketId& id, ReadyCallback on_ready,
                                            FailCallback on_fail) {
  const std::size_t index = index_of(id);  // validates
  Instance& inst = add_instance();
  const InstanceId iid = inst.id;
  if (auto* tracer = clock_.tracer(); tracer && tracer->enabled()) {
    auto e = provider_event(obs::EventKind::kBidPlaced, clock_.now(), id);
    e.code = obs::code::kOnDemand;
    e.instance = iid;
    e.value = markets_[index]->on_demand_price();
    tracer->emit(e);
  }
  inst.market = id;
  inst.market_index = index;
  inst.mode = BillingMode::kOnDemand;
  inst.requested_at = clock_.now();

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
  const std::size_t index = index_of(id);  // validates
  Instance& inst = add_instance();
  const InstanceId iid = inst.id;
  inst.market = id;
  inst.market_index = index;
  inst.mode = BillingMode::kSpot;
  inst.bid = bid;
  inst.requested_at = clock_.now();
  if (auto* tracer = clock_.tracer(); tracer && tracer->enabled()) {
    auto e = provider_event(obs::EventKind::kBidPlaced, clock_.now(), id);
    e.code = obs::code::kSpot;
    e.instance = iid;
    e.value = bid;
    e.aux = markets_[index]->price();
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
  const auto market_name = [&inst] { return inst.market.str(); };
  if (injector != nullptr && !pit->second.delayed &&
      injector->should_inject(faults::FaultKind::kAllocTimeout, market_name, iid)) {
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
                              market_name, iid)) {
    inst.state = InstanceState::kTerminated;
    SPOTHOST_LOG(sim::LogLevel::kDebug, clock_.now(),
                 "request " << iid << " failed: insufficient capacity (injected)");
    p.on_fail(AllocFailure::kInsufficientCapacity);
    return;
  }

  const SpotMarket& market = *markets_[inst.market_index];
  if (inst.mode == BillingMode::kSpot) {
    const double current = market.price();
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
    running_spot_[inst.market_index].emplace(inst.bid, iid);
  }
  if (auto* tracer = clock_.tracer(); tracer && tracer->enabled()) {
    auto e = provider_event(obs::EventKind::kAcquisition, clock_.now(),
                            inst.market);
    e.instance = iid;
    if (inst.mode == BillingMode::kSpot) {
      e.code = obs::code::kSpot;
      e.value = market.price();
      e.aux = inst.bid;
    } else {
      e.code = obs::code::kOnDemand;
      e.value = market.on_demand_price();
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
  Slot& s = slot(id);
  if (s.instance.mode != BillingMode::kSpot) {
    throw std::logic_error("set_revocation_handler: not a spot instance");
  }
  s.on_revocation = std::move(handler);
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
  return slot(id).instance;
}

const CloudProvider::Slot& CloudProvider::slot(InstanceId id) const {
  if (id == kInvalidInstance || id >= next_instance_) {
    throw std::out_of_range("CloudProvider: unknown instance");
  }
  const std::size_t i = id - 1;
  return slab_[i / kChunkSlots][i % kChunkSlots];
}

Instance& CloudProvider::add_instance() {
  if (slab_.empty() || slab_.back().size() == kChunkSlots) {
    std::vector<Slot> chunk;
    chunk.reserve(kChunkSlots);
    slab_.push_back(std::move(chunk));
  }
  Instance& inst = slab_.back().emplace_back().instance;
  inst.id = next_instance_++;
  return inst;
}

void CloudProvider::on_price_change(const SpotMarket& market, double new_price) {
  const MarketId& id = market.id();
  if (auto* tracer = clock_.tracer(); tracer && tracer->enabled()) {
    auto e = provider_event(obs::EventKind::kPriceChange, clock_.now(), id);
    e.value = new_price;
    tracer->emit(e);
  }
  // Warn those whose bid the price now exceeds: the low-bid prefix of this
  // market's running spot index, so a step costs the instances it revokes,
  // not the market's size. Snapshot the ids: handlers may mutate state.
  std::vector<InstanceId> to_warn;
  const auto& running = running_spot_[market.index()];
  for (auto it = running.begin(); it != running.end() && it->first < new_price; ++it) {
    to_warn.push_back(it->second);
  }
  std::sort(to_warn.begin(), to_warn.end());  // deterministic order
  for (const InstanceId iid : to_warn) {
    Slot& warned = slot(iid);
    Instance& inst = warned.instance;
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
    // never faulted — nobody would observe the difference. The handler runs
    // from a copy: it may terminate its own instance, which clears the slot.
    RevocationHandler handler = warned.on_revocation;
    sim::SimTime deliver_at = clock_.now();
    if (handler) {
      if (auto* injector = clock_.fault_injector()) {
        const auto market_name = [&id] { return id.str(); };
        if (injector->should_inject(faults::FaultKind::kWarningDropped,
                                    market_name, iid)) {
          deliver_at = inst.termination_time;
        } else if (injector->should_inject(faults::FaultKind::kWarningDelayed,
                                           market_name, iid)) {
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
  running_spot_[inst.market_index].erase({inst.bid, inst.id});
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
  SpotMarket& market = *markets_[inst.market_index];
  if (inst.mode == BillingMode::kOnDemand) {
    record.cost = on_demand_cost(market.on_demand_price(), inst.launch, end);
  } else {
    record.cost = spot_cost(market.billable_trace(end), inst.launch, end, cause);
  }
  inst.state = InstanceState::kTerminated;
  slot(inst.id).on_revocation = nullptr;
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

  // In id order, so the ledger order is deterministic.
  for (InstanceId iid = 1; iid < next_instance_; ++iid) {
    Instance& inst = instance_mut(iid);
    if (inst.state == InstanceState::kRunning || inst.state == InstanceState::kWarned) {
      complete_lease(inst, TerminationCause::kCustomer, at);
    }
  }
}

}  // namespace spothost::cloud

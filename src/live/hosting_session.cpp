#include "live/hosting_session.hpp"

#include <stdexcept>
#include <unordered_set>

#include "sched/config.hpp"

namespace spothost::live {

HostingSession::HostingSession(sim::Engine& engine, const SessionSpec& spec)
    : engine_(engine), rng_factory_(spec.seed), config_(spec.config) {
  if (spec.markets.empty()) {
    throw std::invalid_argument("HostingSession: no markets");
  }
  // Same wiring order as sched::World: injector (attach-once, empty plan),
  // provider, latencies, markets, provider start.
  faults_ = std::make_unique<faults::FaultInjector>(engine_, rng_factory_,
                                                    faults::FaultPlan{});
  engine_.set_fault_injector(faults_.get());
  provider_ = std::make_unique<cloud::CloudProvider>(engine_, rng_factory_,
                                                     spec.grace_period);
  std::unordered_set<std::string> seen_regions;
  for (const SessionMarket& m : spec.markets) {
    if (seen_regions.insert(m.id.region).second) {
      provider_->set_allocation_latency(m.id.region,
                                        sched::table1_allocation_latency(m.id.region));
    }
  }
  for (const SessionMarket& m : spec.markets) {
    if (m.trace != nullptr) {
      provider_->add_market(m.id, *m.trace, m.on_demand_price);
    } else {
      provider_->add_live_market(m.id, m.on_demand_price);
    }
  }
  provider_->start();
  service_ = std::make_unique<workload::AlwaysOnService>(spec.service_name,
                                                         virt::VmSpec{});
}

void HostingSession::attach_tracer(obs::Tracer* tracer) {
  engine_.set_tracer(tracer);
  service_->set_tracer(tracer);
}

void HostingSession::start() {
  if (scheduler_ != nullptr) {
    throw std::logic_error("HostingSession::start called twice");
  }
  watcher_ = std::make_unique<sched::MarketWatcher>(*provider_);
  scheduler_ = std::make_unique<sched::CloudScheduler>(
      engine_, *provider_, *watcher_, *service_, config_,
      rng_factory_.stream("scheduler-timing"));
  scheduler_->start();
}

void HostingSession::finalize(sim::SimTime at) {
  provider_->finalize(at);
  if (scheduler_ != nullptr) scheduler_->finalize(at);
}

sched::CloudScheduler& HostingSession::scheduler() {
  if (scheduler_ == nullptr) {
    throw std::logic_error("HostingSession: scheduler not started");
  }
  return *scheduler_;
}

}  // namespace spothost::live

#include "sched/fleet.hpp"

#include <algorithm>
#include <stdexcept>

#include "cloud/billing.hpp"
#include "sched/market_selection.hpp"

namespace spothost::sched {

FleetScheduler::FleetScheduler(sim::Clock& clock,
                               cloud::CloudProvider& provider, FleetConfig config,
                               const sim::RngFactory& rng_factory)
    : clock_(clock),
      provider_(provider),
      watcher_(std::make_unique<MarketWatcher>(provider)),
      services_(config.num_services > 0
                    ? static_cast<std::size_t>(config.num_services)
                    : 0),
      schedulers_(services_.capacity()) {
  if (config.num_services <= 0) {
    throw std::invalid_argument("FleetScheduler: num_services must be > 0");
  }
  for (int i = 0; i < config.num_services; ++i) {
    SchedulerConfig cfg = config.service_template;
    if (config.stagger_placement) cfg.placement_salt = i;
    if (!config.home_markets.empty()) {
      cfg.home_market = config.home_markets[static_cast<std::size_t>(i) %
                                            config.home_markets.size()];
    }
    auto& service = services_.emplace_back(
        "svc-" + std::to_string(i),
        virt::default_spec_for_memory(cloud::type_info(cfg.home_market.size).memory_gb,
                                      cloud::type_info(cfg.home_market.size).disk_gb));
    auto& scheduler = schedulers_.emplace_back(
        clock, provider, *watcher_, service, std::move(cfg),
        rng_factory.stream("fleet-timing", static_cast<std::uint64_t>(i)));
    // Owner-tag every lease with the service index so the ledger pro-rates
    // per owning service (metrics).
    scheduler.set_owner_tag(static_cast<std::uint64_t>(i));
  }
}

void FleetScheduler::start() {
  // Availability transitions trace through the engine's tracer, wired at
  // start() so a tracer attached after construction is seen.
  obs::Tracer* tracer = clock_.tracer();
  for (std::size_t i = 0; i < schedulers_.size(); ++i) {
    services_[i].set_tracer(tracer);
    schedulers_[i].start();
  }
}

void FleetScheduler::finalize(sim::SimTime horizon) {
  for (auto& scheduler : schedulers_) scheduler.finalize(horizon);
}

const workload::AlwaysOnService& FleetScheduler::service(int index) const {
  return services_.at(static_cast<std::size_t>(index));
}

const CloudScheduler& FleetScheduler::scheduler(int index) const {
  return schedulers_.at(static_cast<std::size_t>(index));
}

OutageOverlap compute_outage_overlap(
    const std::vector<std::vector<workload::OutageRecord>>& per_service,
    sim::SimTime horizon) {
  // Sweep line over +1/-1 events.
  std::vector<std::pair<sim::SimTime, int>> events;
  for (const auto& outages : per_service) {
    for (const auto& o : outages) {
      const sim::SimTime start = std::max<sim::SimTime>(0, o.start);
      const sim::SimTime end = std::min(horizon, o.end);
      if (start >= end) continue;
      events.emplace_back(start, +1);
      events.emplace_back(end, -1);
    }
  }
  std::sort(events.begin(), events.end());

  OutageOverlap overlap;
  int depth = 0;
  sim::SimTime prev = 0;
  for (const auto& [t, delta] : events) {
    if (depth > 0) overlap.any_down += t - prev;
    prev = t;
    depth += delta;
    overlap.max_concurrent = std::max(overlap.max_concurrent, depth);
  }
  return overlap;
}

FleetMetrics FleetScheduler::metrics(sim::SimTime horizon) const {
  FleetMetrics m;
  m.services = size();

  // Fleet bill: the ledger is shared across all services of this provider,
  // so sum it once; attributed cost pro-rates each lease by the packing
  // share of the service that leased it, resolved through the owner tag the
  // scheduler stamped on the instance (mixed-size fleets pro-rate each
  // record by ITS owner's need, not service 0's). Untagged records — none
  // in a fleet this class built — fall back to service 0's share.
  std::vector<std::vector<workload::OutageRecord>> outages;
  outages.reserve(schedulers_.size());
  double worst = 0.0;
  double unavail_sum = 0.0;
  for (std::size_t i = 0; i < schedulers_.size(); ++i) {
    const auto& avail = services_[i].availability();
    const double u = avail.unavailability_percent();
    unavail_sum += u;
    worst = std::max(worst, u);
    outages.push_back(avail.outages());
    const auto& stats = schedulers_[i].stats();
    m.total_forced += stats.forced;
    m.total_planned += stats.planned;
    m.total_reverse += stats.reverse;

    const double od = effective_on_demand_price(
        provider_, schedulers_[i].config().home_market.region,
        schedulers_[i].config().home_market.size);
    m.baseline_od_cost += cloud::on_demand_cost(od, 0, horizon);
  }
  m.mean_unavailability_pct = unavail_sum / m.services;
  m.worst_unavailability_pct = worst;

  for (const auto& record : provider_.ledger().records()) {
    m.total_cost += record.cost;
    const int capacity = cloud::type_info(record.market.size).capacity_units;
    const std::size_t owner =
        record.owner != cloud::kNoOwner &&
                record.owner < schedulers_.size()
            ? static_cast<std::size_t>(record.owner)
            : 0;
    const int units_needed = schedulers_[owner].units_needed();
    m.attributed_cost +=
        record.cost * std::min(1.0, static_cast<double>(units_needed) / capacity);
  }
  if (m.baseline_od_cost > 0) {
    m.normalized_cost_pct = 100.0 * m.attributed_cost / m.baseline_od_cost;
  }

  const OutageOverlap overlap = compute_outage_overlap(outages, horizon);
  m.any_down_pct =
      100.0 * static_cast<double>(overlap.any_down) / static_cast<double>(horizon);
  m.max_concurrent_down = overlap.max_concurrent;
  return m;
}

}  // namespace spothost::sched

#include "metrics/run_metrics.hpp"

#include <gtest/gtest.h>

#include "sched/baselines.hpp"
#include "simcore/simulation.hpp"

namespace spothost::metrics {
namespace {

using cloud::InstanceSize;
using cloud::MarketId;
using sim::kDay;
using sim::kHour;

const MarketId kHome{"us-east-1a", InstanceSize::kSmall};

// Minimal deterministic world: a calm market, proactive scheduler, one day.
struct Harness {
  Harness() : rng(3), provider(sim, rng) {
    trace::PriceTrace t;
    t.append(0, 0.02);
    t.set_end(kDay);
    provider.add_market(kHome, std::move(t), 0.06);
    trace::PriceTrace u;
    u.append(0, 0.04);
    u.set_end(kDay);
    provider.add_market(MarketId{"us-east-1a", InstanceSize::kLarge},
                        std::move(u), 0.24);
    cloud::AllocationLatency lat;
    lat.on_demand_cv = 0.0;
    lat.spot_cv = 0.0;
    provider.set_allocation_latency("us-east-1a", lat);
    provider.start();
  }

  sim::Simulation sim;
  sim::RngFactory rng;
  cloud::CloudProvider provider;
};

TEST(RunMetrics, NormalizedCostAgainstBaseline) {
  Harness h;
  workload::AlwaysOnService service("svc", virt::VmSpec{});
  auto cfg = sched::proactive_config(kHome);
  cfg.timing_jitter_cv = 0.0;
  sched::MarketWatcher watcher(h.provider);
  sched::CloudScheduler scheduler(h.sim, h.provider, watcher, service, cfg,
                                  h.rng.stream("t"));
  scheduler.start();
  h.sim.run_until(kDay);
  h.provider.finalize(kDay);
  scheduler.finalize(kDay);

  const auto m = compute_run_metrics(h.provider, scheduler, service, kDay, 0.06);
  // 24 spot hours at 0.02 vs baseline 24 x 0.06 => exactly one third.
  EXPECT_DOUBLE_EQ(m.total_cost, 24 * 0.02);
  EXPECT_DOUBLE_EQ(m.baseline_od_cost, 24 * 0.06);
  EXPECT_NEAR(m.normalized_cost_pct, 100.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(m.unavailability_pct, 0.0);
  EXPECT_EQ(m.forced, 0);
  EXPECT_DOUBLE_EQ(m.horizon_hours, 24.0);
}

TEST(RunMetrics, AttributedCostProRatesLargeBoxes) {
  // Hand-build a ledger-only check via a real run on the large market.
  Harness h;
  workload::AlwaysOnService service("svc", virt::VmSpec{});
  auto cfg = sched::proactive_config(kHome);
  cfg.scope = sched::MarketScope::kMultiMarket;
  cfg.timing_jitter_cv = 0.0;
  sched::MarketWatcher watcher(h.provider);
  sched::CloudScheduler scheduler(h.sim, h.provider, watcher, service, cfg,
                                  h.rng.stream("t"));
  scheduler.start();
  h.sim.run_until(kDay);
  h.provider.finalize(kDay);
  scheduler.finalize(kDay);

  const auto m = compute_run_metrics(h.provider, scheduler, service, kDay, 0.06);
  // The scheduler picks the large box: raw 0.04/hr effective 0.01/hr share.
  EXPECT_DOUBLE_EQ(m.total_cost, 24 * 0.04);
  EXPECT_DOUBLE_EQ(m.attributed_cost, 24 * 0.01);
  EXPECT_NEAR(m.normalized_cost_pct, 100.0 * 0.01 / 0.06, 1e-9);
}

TEST(RunMetrics, MigrationRatesPerHour) {
  Harness h;
  workload::AlwaysOnService service("svc", virt::VmSpec{});
  auto cfg = sched::proactive_config(kHome);
  cfg.timing_jitter_cv = 0.0;
  sched::MarketWatcher watcher(h.provider);
  sched::CloudScheduler scheduler(h.sim, h.provider, watcher, service, cfg,
                                  h.rng.stream("t"));
  scheduler.start();
  h.sim.run_until(kDay);
  h.provider.finalize(kDay);
  scheduler.finalize(kDay);
  const auto m = compute_run_metrics(h.provider, scheduler, service, kDay, 0.06);
  EXPECT_DOUBLE_EQ(m.forced_per_hour, 0.0);
  EXPECT_DOUBLE_EQ(m.planned_reverse_per_hour, 0.0);
}

}  // namespace
}  // namespace spothost::metrics

// Golden-trace regression: the layered scheduler (watcher / placement /
// migrations) must be bit-for-bit behaviour-preserving. This pins the
// full JSONL event trace of one proactive multi-market run — every event,
// every field, every ordering decision — to an FNV-1a hash captured from the
// pre-decomposition monolithic CloudScheduler. Any change to trigger fan-out
// order, RNG draw order, or trace emission points shows up here as a hash
// mismatch long before it shows up as a shifted figure.
//
// A second golden pins a five-service fleet sharing one MarketWatcher: its
// JSONL trace plus the rendered fleet-metrics table, so any change to
// multi-listener fan-out shows up as a hash or digit mismatch. A third pins
// a ten-service fleet with every fault kind armed, so the fields of the
// fault, retry and degradation events are pinned too. A fourth pins the
// metrics of a 2,000-service storm month, the one run here large enough to
// leave the engine's binary heap for its timing wheel.
//
// If a test fails after an INTENTIONAL behaviour change, re-capture: hash
// the bytes the embedded scenario produces and update the constants
// together (the byte/line counts make "trace got longer" vs "same events,
// different order" diagnosable from the failure message alone).
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "obs/counter_sink.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/sink.hpp"
#include "spothost.hpp"

namespace spothost {
namespace {

// Captured from the monolithic scheduler at the commit preceding the
// trigger/placement/migration decomposition.
constexpr std::uint64_t kGoldenHash = 2417515329649513819ull;
constexpr std::size_t kGoldenBytes = 230427;
constexpr std::size_t kGoldenLines = 1717;

// Captured from the fleet scenario below before the multi-core single-run
// engine was deleted; its parallel runs reproduced these same bytes.
constexpr std::uint64_t kFleetGoldenHash = 7930545321851806217ull;
constexpr std::size_t kFleetGoldenBytes = 251419;
constexpr std::size_t kFleetGoldenLines = 1888;
constexpr const char* kFleetGoldenTable =
    R"(| services | cost $  | attributed $ | cost % | mean unavail % | worst unavail % | any down % | max down | forced | planned | reverse |
|----------|---------|--------------|--------|----------------|-----------------|------------|----------|--------|---------|---------|
| 5        | 37.5800 | 14.9759      | 20.800 | 0.02711        | 0.04974         | 0.09870    | 3        | 9      | 2       | 9       |
)";

// Captured from the faulted fleet scenario below before schedulers counted
// their events without building them.
constexpr std::uint64_t kFaultedGoldenHash = 4827150572047896302ull;
constexpr std::size_t kFaultedGoldenBytes = 295280;
constexpr std::size_t kFaultedGoldenLines = 2244;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

void expect_trace(const std::string& text, std::uint64_t hash, std::size_t bytes,
                  std::size_t lines) {
  std::size_t newlines = 0;
  for (const char c : text) {
    if (c == '\n') ++newlines;
  }
  EXPECT_EQ(text.size(), bytes);
  EXPECT_EQ(newlines, lines);
  EXPECT_EQ(fnv1a(text), hash);
}

sched::Scenario golden_scenario() {
  sched::Scenario scenario;
  scenario.seed = 20150615;
  scenario.horizon = 10 * sim::kDay;
  scenario.regions = {"us-east-1a", "us-east-1b"};
  scenario.sizes = {cloud::InstanceSize::kSmall, cloud::InstanceSize::kLarge};
  return scenario;
}

TEST(TraceGolden, ProactiveMultiMarketRunIsByteIdentical) {
  sched::SchedulerConfig cfg =
      sched::proactive_config({"us-east-1a", cloud::InstanceSize::kSmall});
  cfg.scope = sched::MarketScope::kMultiMarket;

  std::ostringstream os;
  obs::Tracer tracer;
  obs::JsonlSink sink(os);
  tracer.add_sink(&sink);
  (void)metrics::run_hosting_scenario(golden_scenario(), cfg, nullptr, &tracer);
  expect_trace(os.str(), kGoldenHash, kGoldenBytes, kGoldenLines);
}

sched::FleetConfig golden_fleet_config() {
  sched::FleetConfig cfg;
  cfg.num_services = 5;
  cfg.service_template =
      sched::proactive_config({"us-east-1a", cloud::InstanceSize::kSmall});
  cfg.service_template.scope = sched::MarketScope::kMultiMarket;
  // Stop-and-copy checkpointing: planned migrations carry real downtime, so
  // service-up and degraded-mode timers fire between market events.
  cfg.service_template.combo = virt::MechanismCombo::kCkpt;
  cfg.home_markets = {{"us-east-1a", cloud::InstanceSize::kSmall},
                      {"us-east-1b", cloud::InstanceSize::kSmall}};
  cfg.stagger_placement = true;
  return cfg;
}

/// Runs `fleet` to the world's horizon, then finalizes provider and fleet.
void run_fleet(sched::World& world, sched::FleetScheduler& fleet) {
  fleet.start();
  world.engine().run_until(world.horizon());
  world.provider().finalize(world.horizon());
  fleet.finalize(world.horizon());
}

TEST(FleetGolden, FleetRunIsByteIdentical) {
  const sched::FleetConfig cfg = golden_fleet_config();

  std::ostringstream os;
  obs::Tracer tracer;
  obs::JsonlSink sink(os);
  tracer.add_sink(&sink);

  sched::World world(golden_scenario());
  world.engine().set_tracer(&tracer);
  sched::FleetScheduler fleet(world.clock(), world.provider(), cfg, world.rng());
  run_fleet(world, fleet);
  tracer.flush();
  expect_trace(os.str(), kFleetGoldenHash, kFleetGoldenBytes, kFleetGoldenLines);

  // The bench-table rendering path (what bench_ablation_fleet prints):
  // every aggregate must reproduce down to the formatted digit.
  const sched::FleetMetrics m = fleet.metrics(world.horizon());
  metrics::TextTable table({"services", "cost $", "attributed $", "cost %",
                            "mean unavail %", "worst unavail %", "any down %",
                            "max down", "forced", "planned", "reverse"});
  table.add_row({std::to_string(m.services), metrics::fmt(m.total_cost, 4),
                 metrics::fmt(m.attributed_cost, 4),
                 metrics::fmt(m.normalized_cost_pct, 3),
                 metrics::fmt(m.mean_unavailability_pct, 5),
                 metrics::fmt(m.worst_unavailability_pct, 5),
                 metrics::fmt(m.any_down_pct, 5),
                 std::to_string(m.max_concurrent_down),
                 std::to_string(m.total_forced), std::to_string(m.total_planned),
                 std::to_string(m.total_reverse)});
  std::ostringstream rendered;
  table.print(rendered);
  EXPECT_EQ(rendered.str(), kFleetGoldenTable);
}

// The fleet above at ten services with live migration (so live-copy aborts
// get opportunities) and every fault kind armed at 0.3.
sched::Scenario faulted_scenario() {
  sched::Scenario scenario = golden_scenario();
  for (const faults::FaultKind kind : faults::kAllFaultKinds) {
    scenario.fault_plan.with_rate(kind, 0.3);
  }
  return scenario;
}

sched::FleetConfig faulted_fleet_config() {
  sched::FleetConfig cfg = golden_fleet_config();
  cfg.num_services = 10;
  cfg.service_template.combo = virt::MechanismCombo::kCkptLive;
  return cfg;
}

TEST(FleetGolden, FaultedFleetRunIsByteIdentical) {
  std::ostringstream os;
  obs::Tracer tracer;
  obs::JsonlSink sink(os);
  obs::CounterSink counts;
  tracer.add_sink(&sink);
  tracer.add_sink(&counts);

  sched::World world(faulted_scenario());
  world.engine().set_tracer(&tracer);
  sched::FleetScheduler fleet(world.clock(), world.provider(),
                              faulted_fleet_config(), world.rng());
  run_fleet(world, fleet);
  tracer.flush();
  expect_trace(os.str(), kFaultedGoldenHash, kFaultedGoldenBytes,
               kFaultedGoldenLines);

  // Every event kind whose fields the golden exists to pin occurs.
  for (const faults::FaultKind kind : faults::kAllFaultKinds) {
    EXPECT_GE(counts.count(obs::EventKind::kFaultInjected,
                           static_cast<std::uint8_t>(kind)),
              1u)
        << faults::to_string(kind);
  }
  EXPECT_GE(counts.count(obs::EventKind::kRetryScheduled), 1u);
  EXPECT_GE(counts.count(obs::EventKind::kDegradedMode), 1u);
}

// perfbench's fleet_storm spec at 2,000 services: the us-east markets and
// homes, every fault kind at rate 0.05, one 30-day month. Its start() puts
// 2,008 events in flight, more than a Simulation keeps on its binary heap
// (kHeapMaxPending), so the month runs on the timing wheel: this pins that
// path end to end, where the goldens above run on the heap. Captured before
// a Simulation started on the heap, when every run was on the wheel.
TEST(FleetGolden, StormMonthAboveTheHeapLimitMatchesItsPin) {
  sched::Scenario scenario;
  scenario.seed = metrics::run_seed(20150615, 0);
  scenario.horizon = 30 * sim::kDay;
  scenario.regions = {"us-east-1a", "us-east-1b"};
  for (const faults::FaultKind kind : faults::kAllFaultKinds) {
    scenario.fault_plan.with_rate(kind, 0.05);
  }
  sched::FleetConfig cfg;
  cfg.num_services = 2000;
  cfg.home_markets = {{"us-east-1a", cloud::InstanceSize::kSmall},
                      {"us-east-1b", cloud::InstanceSize::kSmall},
                      {"us-east-1a", cloud::InstanceSize::kLarge},
                      {"us-east-1b", cloud::InstanceSize::kXLarge}};
  cfg.service_template = sched::proactive_config(cfg.home_markets.front());

  sched::World world(scenario);
  sched::FleetScheduler fleet(world.clock(), world.provider(), cfg, world.rng());
  fleet.start();
  EXPECT_EQ(world.engine().pending(), 2008u);
  world.engine().run_until(world.horizon());
  world.provider().finalize(world.horizon());
  fleet.finalize(world.horizon());

  EXPECT_EQ(world.engine().dispatched(), 100983u);
  EXPECT_EQ(world.provider().ledger().records().size(), 21088u);
  // 17 significant digits: each literal reads back as the exact double.
  const sched::FleetMetrics m = fleet.metrics(world.horizon());
  EXPECT_EQ(m.services, 2000);
  EXPECT_EQ(m.total_cost, 62029.481844432245);
  EXPECT_EQ(m.attributed_cost, 62029.481844432245);
  EXPECT_EQ(m.baseline_od_cost, 302400.00000000309);
  EXPECT_EQ(m.normalized_cost_pct, 20.512394789825269);
  EXPECT_EQ(m.mean_unavailability_pct, 0.0049939017939532367);
  EXPECT_EQ(m.worst_unavailability_pct, 0.032910374541212754);
  EXPECT_EQ(m.any_down_pct, 0.94465015432098765);
  EXPECT_EQ(m.max_concurrent_down, 500);
  EXPECT_EQ(m.total_forced, 4311);
  EXPECT_EQ(m.total_planned, 5186);
  EXPECT_EQ(m.total_reverse, 9591);
}

std::vector<int> stats_fields(const sched::SchedulerStats& s) {
  return {s.forced,  s.planned,  s.reverse,
          s.cancelled_planned, s.market_switches, s.spot_request_failures,
          s.od_hours_started,  s.retries,  s.degraded_entries};
}

// An untraced scheduler counts its events on a path that builds none; a
// traced one builds and emits them too. Both must report the same stats,
// and an external CounterSink must reconstruct the fleet's totals.
TEST(FaultedFleet, UntracedStatsMatchTracedStats) {
  const auto per_scheduler_stats = [](obs::Tracer* tracer) {
    sched::World world(faulted_scenario());
    world.engine().set_tracer(tracer);
    sched::FleetScheduler fleet(world.clock(), world.provider(),
                                faulted_fleet_config(), world.rng());
    run_fleet(world, fleet);
    std::vector<std::vector<int>> out;
    for (int i = 0; i < fleet.size(); ++i) {
      out.push_back(stats_fields(fleet.scheduler(i).stats()));
    }
    return out;
  };
  obs::Tracer tracer;
  obs::CounterSink external;
  tracer.add_sink(&external);
  const auto untraced = per_scheduler_stats(nullptr);
  const auto traced = per_scheduler_stats(&tracer);

  ASSERT_EQ(untraced.size(), 10u);
  EXPECT_EQ(untraced, traced);
  std::vector<int> totals(untraced.front().size(), 0);
  for (const auto& fields : untraced) {
    for (std::size_t f = 0; f < fields.size(); ++f) totals[f] += fields[f];
  }
  EXPECT_EQ(totals, stats_fields(sched::scheduler_stats_from(external)));
}

}  // namespace
}  // namespace spothost

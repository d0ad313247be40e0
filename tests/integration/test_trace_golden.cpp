// Golden-trace regression: the layered scheduler (watcher / placement /
// migration engine) must be bit-for-bit behaviour-preserving. This pins the
// full JSONL event trace of one proactive multi-market run — every event,
// every field, every ordering decision — to an FNV-1a hash captured from the
// pre-decomposition monolithic CloudScheduler. Any change to trigger fan-out
// order, RNG draw order, or trace emission points shows up here as a hash
// mismatch long before it shows up as a shifted figure.
//
// A second golden pins a five-service fleet sharing one MarketWatcher: its
// JSONL trace plus the rendered fleet-metrics table, so any change to
// multi-listener fan-out shows up as a hash or digit mismatch.
//
// If a test fails after an INTENTIONAL behaviour change, re-capture: hash
// the bytes the embedded scenario produces and update the constants
// together (the byte/line counts make "trace got longer" vs "same events,
// different order" diagnosable from the failure message alone).
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

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

TEST(FleetGolden, FleetRunIsByteIdentical) {
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

  std::ostringstream os;
  obs::Tracer tracer;
  obs::JsonlSink sink(os);
  tracer.add_sink(&sink);

  sched::World world(golden_scenario());
  world.engine().set_tracer(&tracer);
  sched::FleetScheduler fleet(world.clock(), world.provider(), cfg, world.rng());
  fleet.start();
  world.engine().run_until(world.horizon());
  world.provider().finalize(world.horizon());
  fleet.finalize(world.horizon());
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

}  // namespace
}  // namespace spothost

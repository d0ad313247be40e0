// Golden-trace regression: the layered scheduler (watcher / placement /
// migration engine) must be bit-for-bit behaviour-preserving. This pins the
// full JSONL event trace of one proactive multi-market run — every event,
// every field, every ordering decision — to an FNV-1a hash captured from the
// pre-decomposition monolithic CloudScheduler. Any change to trigger fan-out
// order, RNG draw order, or trace emission points shows up here as a hash
// mismatch long before it shows up as a shifted figure.
//
// If this test fails after an INTENTIONAL behaviour change, re-capture: hash
// the bytes the embedded scenario produces and update the three constants
// together (the byte/line counts make "trace got longer" vs "same events,
// different order" diagnosable from the failure message alone).
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "obs/jsonl_sink.hpp"
#include "obs/sink.hpp"
#include "simcore/sharded_sim.hpp"
#include "spothost.hpp"

namespace spothost {
namespace {

// Captured from the monolithic scheduler at the commit preceding the
// trigger/placement/migration decomposition.
constexpr std::uint64_t kGoldenHash = 2417515329649513819ull;
constexpr std::size_t kGoldenBytes = 230427;
constexpr std::size_t kGoldenLines = 1717;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string run_golden_scenario(int shards) {
  sched::Scenario scenario;
  scenario.seed = 20150615;
  scenario.horizon = 10 * sim::kDay;
  scenario.regions = {"us-east-1a", "us-east-1b"};
  scenario.sizes = {cloud::InstanceSize::kSmall, cloud::InstanceSize::kLarge};
  scenario.shards = shards;
  sched::SchedulerConfig cfg =
      sched::proactive_config({"us-east-1a", cloud::InstanceSize::kSmall});
  cfg.scope = sched::MarketScope::kMultiMarket;

  std::ostringstream os;
  obs::Tracer tracer;
  obs::JsonlSink sink(os);
  tracer.add_sink(&sink);
  (void)metrics::run_hosting_scenario(scenario, cfg, &tracer, nullptr);
  return os.str();
}

void expect_golden(const std::string& text, const std::string& label) {
  std::size_t lines = 0;
  for (const char c : text) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(text.size(), kGoldenBytes) << label;
  EXPECT_EQ(lines, kGoldenLines) << label;
  EXPECT_EQ(fnv1a(text), kGoldenHash) << label;
}

TEST(TraceGolden, ProactiveMultiMarketRunIsByteIdentical) {
  expect_golden(run_golden_scenario(/*shards=*/0), "serial default");
}

TEST(TraceGolden, ShardedRunIsByteIdenticalToSerial) {
  // Scenario::shards is an explicit program choice, so it is never
  // hardware-clamped: the sharded engine runs on every machine, and its
  // barrier/merge machinery must reproduce the serial bytes exactly.
  for (const int shards : {2, 4}) {
    expect_golden(run_golden_scenario(shards),
                  "shards=" + std::to_string(shards));
  }
}

// ---- fleet golden: shard-pinned fleets reproduce the serial bytes ---------

struct FleetRun {
  std::string jsonl;            ///< full event trace
  std::string table;            ///< rendered fleet-metrics table
  std::uint64_t windows = 0;    ///< parallel windows run (sharded only)
  std::uint64_t merged = 0;     ///< window dispatches merged (sharded only)
  std::uint64_t stages = 0;     ///< price-trigger pre-screen stages
};

FleetRun run_fleet_golden(int shards) {
  sched::Scenario scenario;
  scenario.seed = 20150615;
  scenario.horizon = 10 * sim::kDay;
  scenario.regions = {"us-east-1a", "us-east-1b"};
  scenario.sizes = {cloud::InstanceSize::kSmall, cloud::InstanceSize::kLarge};
  scenario.shards = shards;

  sched::FleetConfig cfg;
  cfg.num_services = 5;
  cfg.service_template =
      sched::proactive_config({"us-east-1a", cloud::InstanceSize::kSmall});
  cfg.service_template.scope = sched::MarketScope::kMultiMarket;
  // Stop-and-copy checkpointing: planned migrations carry real downtime, so
  // the shard-lane timers (service-up at up_at, degraded-mode ends) fire
  // inside parallel windows rather than degenerating to barrier-only work.
  cfg.service_template.combo = virt::MechanismCombo::kCkpt;
  cfg.home_markets = {{"us-east-1a", cloud::InstanceSize::kSmall},
                      {"us-east-1b", cloud::InstanceSize::kSmall}};
  cfg.stagger_placement = true;

  std::ostringstream os;
  obs::Tracer tracer;
  obs::JsonlSink sink(os);
  tracer.add_sink(&sink);

  sched::World world(scenario);
  world.engine().set_tracer(&tracer);
  sched::FleetScheduler fleet(world.clock(), world.provider(), cfg,
                              world.rng(), world.shard_router());
  fleet.start();
  world.engine().run_until(world.horizon());
  world.provider().finalize(world.horizon());
  fleet.finalize(world.horizon());
  tracer.flush();

  FleetRun r;
  r.jsonl = os.str();
  const sched::FleetMetrics m = fleet.metrics(world.horizon());
  // The bench-table rendering path (what bench_ablation_fleet prints):
  // every aggregate must reproduce down to the formatted digit.
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
  std::ostringstream ts;
  table.print(ts);
  r.table = ts.str();

  if (const auto* sharded =
          dynamic_cast<const sim::ShardedSimulation*>(&world.engine())) {
    const auto stats = sharded->stats();
    r.windows = stats.windows;
    r.merged = stats.merged;
    r.stages = stats.stages;
  }
  return r;
}

TEST(FleetGolden, ShardPinnedFleetIsByteIdenticalToSerial) {
  const FleetRun serial = run_fleet_golden(/*shards=*/1);
  ASSERT_FALSE(serial.jsonl.empty());
  for (const int shards : {2, 4}) {
    const FleetRun sharded = run_fleet_golden(shards);
    const std::string label = "shards=" + std::to_string(shards);
    EXPECT_EQ(sharded.jsonl, serial.jsonl) << label;
    EXPECT_EQ(sharded.table, serial.table) << label;
    // The identity must be earned, not vacuous: the run must have staged
    // price pre-screens and dispatched real lane work inside windows.
    EXPECT_GT(sharded.windows, 0u) << label;
    EXPECT_GT(sharded.merged, 0u) << label;
    EXPECT_GT(sharded.stages, 0u) << label;
  }
}

}  // namespace
}  // namespace spothost

// Band-routed price fan-out against the deliver-to-all oracle.
//
// MarketWatcher calls a listener on a price step only when the price leaves
// the band in which the listener promised that step is a no-op. The oracle
// (market_watcher_test_peer.hpp) delivers every step to every listener and
// checks every recipient's stored bands before each delivery. These tests
// run the same seeded scenarios both ways and require byte-identical JSONL
// traces and identical metrics: every shipped policy, every market scope,
// with no faults and with every fault kind, plus the standalone golden
// scenario and a serve-mode replay. Band routing must also cut deliveries
// on fleets shaped like perfbench's by two orders of magnitude.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "market_watcher_test_peer.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/sink.hpp"
#include "spothost.hpp"

namespace spothost::sched {
namespace {

using cloud::InstanceSize;
using cloud::MarketId;
using sim::kDay;

enum class Policy {
  kProactive,
  kReactive,
  kPureSpot,
  kPureSpotForecast,
  kPortfolio,
  kRevocationAware,
  kForecast,
};

const char* policy_name(Policy policy) {
  switch (policy) {
    case Policy::kProactive: return "Proactive";
    case Policy::kReactive: return "Reactive";
    case Policy::kPureSpot: return "PureSpot";
    case Policy::kPureSpotForecast: return "PureSpotForecast";
    case Policy::kPortfolio: return "Portfolio";
    case Policy::kRevocationAware: return "RevocationAware";
    case Policy::kForecast: return "Forecast";
  }
  return "?";
}

const char* scope_name(MarketScope scope) {
  switch (scope) {
    case MarketScope::kSingleMarket: return "SingleMarket";
    case MarketScope::kMultiMarket: return "MultiMarket";
    case MarketScope::kMultiRegion: return "MultiRegion";
  }
  return "?";
}

SchedulerConfig policy_config(Policy policy, const MarketId& home) {
  switch (policy) {
    case Policy::kProactive: return proactive_config(home);
    case Policy::kReactive: return reactive_config(home);
    case Policy::kPureSpot: return pure_spot_config(home);
    case Policy::kPureSpotForecast: {
      auto cfg = pure_spot_config(home);
      cfg.bidding = std::make_shared<const ForecastBidPolicy>();
      return cfg;
    }
    case Policy::kPortfolio: {
      auto cfg = proactive_config(home);
      cfg.placement = std::make_shared<const PortfolioPlacementPolicy>();
      return cfg;
    }
    case Policy::kRevocationAware: {
      auto cfg = proactive_config(home);
      cfg.placement = std::make_shared<const RevocationAwarePolicy>();
      return cfg;
    }
    case Policy::kForecast: {
      auto cfg = proactive_config(home);
      cfg.bidding = std::make_shared<const ForecastBidPolicy>();
      return cfg;
    }
  }
  return proactive_config(home);
}

/// Every FleetMetrics field, shortest-round-trip exact.
std::string render(const FleetMetrics& m) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "services=%d total=%.17g attributed=%.17g baseline=%.17g "
                "normalized=%.17g mean=%.17g worst=%.17g any=%.17g max_down=%d "
                "forced=%d planned=%d reverse=%d",
                m.services, m.total_cost, m.attributed_cost, m.baseline_od_cost,
                m.normalized_cost_pct, m.mean_unavailability_pct,
                m.worst_unavailability_pct, m.any_down_pct, m.max_concurrent_down,
                m.total_forced, m.total_planned, m.total_reverse);
  return buf;
}

struct FleetRun {
  std::string jsonl;
  std::string metrics;
  std::uint64_t dispatched = 0;
  std::uint64_t price_deliveries = 0;
};

FleetRun run_fleet(const Scenario& scenario, const FleetConfig& config, bool oracle) {
  std::ostringstream os;
  obs::Tracer tracer;
  obs::JsonlSink sink(os);
  tracer.add_sink(&sink);
  World world(scenario);
  world.engine().set_tracer(&tracer);
  FleetScheduler fleet(world.clock(), world.provider(), config, world.rng());
  if (oracle) MarketWatcherTestPeer::deliver_to_all(fleet.watcher());
  fleet.start();
  world.engine().run_until(world.horizon());
  world.provider().finalize(world.horizon());
  fleet.finalize(world.horizon());
  tracer.flush();
  return FleetRun{os.str(), render(fleet.metrics(world.horizon())),
                  world.engine().dispatched(), fleet.watcher().price_deliveries()};
}

void expect_same_run(const FleetRun& band, const FleetRun& oracle) {
  ASSERT_FALSE(oracle.jsonl.empty());
  EXPECT_EQ(band.jsonl.size(), oracle.jsonl.size());
  EXPECT_TRUE(band.jsonl == oracle.jsonl) << "band-routed JSONL diverged from the oracle";
  EXPECT_EQ(band.metrics, oracle.metrics);
  EXPECT_EQ(band.dispatched, oracle.dispatched);
  EXPECT_LE(band.price_deliveries, oracle.price_deliveries);
}

// --- the policy x scope x faults matrix -----------------------------------

using MatrixParam = std::tuple<Policy, MarketScope, bool>;

Scenario matrix_scenario(const MatrixParam& param) {
  const auto [policy, scope, with_faults] = param;
  Scenario s;
  // A different price history per cell.
  s.seed = 9000 + 100 * static_cast<std::uint64_t>(policy) +
           10 * static_cast<std::uint64_t>(scope) + (with_faults ? 1 : 0);
  s.horizon = 10 * kDay;
  s.regions = {"us-east-1a", "us-east-1b", "eu-west-1a"};
  s.sizes = {InstanceSize::kSmall, InstanceSize::kMedium, InstanceSize::kLarge};
  if (with_faults) {
    for (const auto kind : faults::kAllFaultKinds) s.fault_plan.with_rate(kind, 0.05);
  }
  return s;
}

FleetConfig matrix_fleet(const MatrixParam& param) {
  const Policy policy = std::get<0>(param);
  const MarketScope scope = std::get<1>(param);
  FleetConfig cfg;
  cfg.num_services = 6;
  // Mixed sizes: each home size packs a different number of units.
  cfg.home_markets = {{"us-east-1a", InstanceSize::kSmall},
                      {"us-east-1b", InstanceSize::kLarge},
                      {"eu-west-1a", InstanceSize::kMedium}};
  cfg.service_template = policy_config(policy, cfg.home_markets.front());
  cfg.service_template.scope = scope;
  cfg.stagger_placement = true;
  return cfg;
}

class BandRoutingMatrix : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(BandRoutingMatrix, FleetMatchesOracleByteForByte) {
  const auto scenario = matrix_scenario(GetParam());
  const auto config = matrix_fleet(GetParam());
  expect_same_run(run_fleet(scenario, config, /*oracle=*/false),
                  run_fleet(scenario, config, /*oracle=*/true));
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, BandRoutingMatrix,
    ::testing::Combine(
        ::testing::Values(Policy::kProactive, Policy::kReactive, Policy::kPureSpot,
                          Policy::kPureSpotForecast, Policy::kPortfolio,
                          Policy::kRevocationAware, Policy::kForecast),
        ::testing::Values(MarketScope::kSingleMarket, MarketScope::kMultiMarket,
                          MarketScope::kMultiRegion),
        ::testing::Bool()),
    [](const ::testing::TestParamInfo<MatrixParam>& cell) {
      return std::string(policy_name(std::get<0>(cell.param))) + "_" +
             scope_name(std::get<1>(cell.param)) +
             (std::get<2>(cell.param) ? "_Faults" : "_NoFaults");
    });

// --- the standalone golden scenario ---------------------------------------

Scenario golden_scenario() {
  Scenario scenario;
  scenario.seed = 20150615;
  scenario.horizon = 10 * kDay;
  scenario.regions = {"us-east-1a", "us-east-1b"};
  scenario.sizes = {InstanceSize::kSmall, InstanceSize::kLarge};
  return scenario;
}

// run_hosting_scenario's wiring, with the scheduler's own watcher reachable.
std::string standalone_trace(const Scenario& scenario, const SchedulerConfig& config,
                             bool oracle) {
  std::ostringstream os;
  obs::Tracer tracer;
  obs::JsonlSink sink(os);
  tracer.add_sink(&sink);
  World world(scenario);
  workload::AlwaysOnService service("hosted-service", virt::VmSpec{});
  world.engine().set_tracer(&tracer);
  service.set_tracer(&tracer);
  CloudScheduler scheduler(world.clock(), world.provider(), service, config,
                           world.stream("scheduler-timing"));
  if (oracle) MarketWatcherTestPeer::deliver_to_all(scheduler.watcher());
  scheduler.start();
  world.engine().run_until(world.horizon());
  world.provider().finalize(world.horizon());
  scheduler.finalize(world.horizon());
  tracer.flush();
  return os.str();
}

TEST(BandRouting, GoldenScenarioMatchesOracle) {
  auto cfg = proactive_config({"us-east-1a", InstanceSize::kSmall});
  cfg.scope = MarketScope::kMultiMarket;

  std::ostringstream production;
  obs::Tracer tracer;
  obs::JsonlSink sink(production);
  tracer.add_sink(&sink);
  (void)metrics::run_hosting_scenario(golden_scenario(), cfg, &tracer, nullptr);

  const std::string oracle = standalone_trace(golden_scenario(), cfg, /*oracle=*/true);
  ASSERT_FALSE(oracle.empty());
  EXPECT_TRUE(standalone_trace(golden_scenario(), cfg, /*oracle=*/false) ==
              production.str())
      << "the test wiring no longer matches run_hosting_scenario";
  EXPECT_TRUE(oracle == production.str())
      << "band-routed golden run diverged from the oracle";
}

// --- a serve-mode replay ----------------------------------------------------

struct ReplayRun {
  std::string jsonl;
  double total_cost = 0.0;
};

// spothost_serve's replay path: a HostingSession on a WallClock at full
// speed, its push-fed markets driven by a FeedDriver.
ReplayRun replay(const Scenario& scenario, const SchedulerConfig& config,
                 const MarketTraceSet& traces, bool oracle) {
  std::ostringstream os;
  obs::Tracer tracer;
  obs::JsonlSink sink(os);
  tracer.add_sink(&sink);
  live::WallClock clock(live::WallClock::Options{live::WallClock::kMaxSpeed, 0});
  live::SessionSpec spec;
  spec.seed = scenario.seed;
  spec.grace_period = scenario.grace_period;
  spec.config = config;
  for (const auto& entry : traces.markets()) {
    spec.markets.push_back(live::SessionMarket{entry.id, entry.on_demand, nullptr});
  }
  live::HostingSession session(clock, spec);
  session.attach_tracer(&tracer);
  live::TraceReplayFeed feed;
  for (const auto& entry : traces.markets()) {
    feed.add_market(entry.id.str(), &entry.prices);
  }
  live::FeedDriver driver(clock, session.provider(), feed);
  driver.start();
  session.start();
  // The scheduler exists from start() on; nothing has been delivered yet.
  if (oracle) MarketWatcherTestPeer::deliver_to_all(session.scheduler().watcher());
  clock.run_until(scenario.horizon);
  session.finalize(scenario.horizon);
  tracer.flush();
  return ReplayRun{os.str(), session.provider().ledger().total_cost()};
}

TEST(BandRouting, ServeReplayMatchesOracle) {
  Scenario raw;
  raw.seed = 7;
  raw.horizon = 5 * kDay;
  raw.regions = {"us-east-1a", "us-east-1b"};
  raw.sizes = {InstanceSize::kSmall, InstanceSize::kLarge};
  const auto scenario = normalized_scenario(raw);
  auto cfg = proactive_config({"us-east-1a", InstanceSize::kSmall});
  cfg.scope = MarketScope::kMultiMarket;
  const auto traces = MarketTraceSet::generate(scenario);

  const ReplayRun band = replay(scenario, cfg, *traces, /*oracle=*/false);
  const ReplayRun oracle = replay(scenario, cfg, *traces, /*oracle=*/true);
  ASSERT_FALSE(oracle.jsonl.empty());
  EXPECT_TRUE(band.jsonl == oracle.jsonl) << "band-routed replay diverged from the oracle";
  EXPECT_EQ(band.total_cost, oracle.total_cost);
}

// --- hand-built corner cases -------------------------------------------------

// One proactive single-market service on a step trace of its own, with
// zero-CV latencies and no jitter, so each test controls exactly which band
// state a price step meets.
struct HandRun {
  std::string jsonl;
  std::uint64_t dispatched = 0;
  double cost = 0.0;
  std::uint64_t crossings = 0;
  std::uint64_t price_deliveries = 0;
};

const MarketId kHome{"us-east-1a", InstanceSize::kSmall};
constexpr sim::SimTime kHandHorizon = 8 * sim::kHour;

HandRun run_hand_built(const std::vector<std::pair<sim::SimTime, double>>& steps,
                       bool oracle) {
  std::ostringstream os;
  obs::Tracer tracer;
  obs::JsonlSink sink(os);
  tracer.add_sink(&sink);
  sim::RngFactory rng(99);
  sim::Simulation sim;
  sim.set_tracer(&tracer);
  cloud::CloudProvider provider(sim, rng);
  trace::PriceTrace prices;
  for (const auto& [at, price] : steps) prices.append(at, price);
  prices.set_end(kHandHorizon);
  provider.add_market(kHome, std::move(prices), 0.06);
  cloud::AllocationLatency lat;
  lat.on_demand_mean_s = 95.0;
  lat.on_demand_cv = 0.0;
  lat.spot_mean_s = 240.0;
  lat.spot_cv = 0.0;
  provider.set_allocation_latency(kHome.region, lat);
  provider.start();
  workload::AlwaysOnService service("svc", virt::default_spec_for_memory(1.7, 8.0));
  service.set_tracer(&tracer);
  auto cfg = proactive_config(kHome);
  cfg.timing_jitter_cv = 0.0;
  CloudScheduler scheduler(sim, provider, service, cfg, rng.stream("timing"));
  if (oracle) MarketWatcherTestPeer::deliver_to_all(scheduler.watcher());
  scheduler.start();
  sim.run_until(kHandHorizon);
  provider.finalize(kHandHorizon);
  scheduler.finalize(kHandHorizon);
  tracer.flush();
  return HandRun{os.str(), sim.dispatched(), provider.ledger().total_cost(),
                 scheduler.counters().count(obs::EventKind::kPriceCrossing),
                 scheduler.watcher().price_deliveries()};
}

void expect_same_hand_run(const HandRun& band, const HandRun& oracle) {
  EXPECT_TRUE(band.jsonl == oracle.jsonl) << "band-routed JSONL diverged from the oracle";
  EXPECT_EQ(band.dispatched, oracle.dispatched);
  EXPECT_EQ(band.cost, oracle.cost);
  EXPECT_EQ(band.crossings, oracle.crossings);
}

TEST(BandRouting, HotAdoptionThenDipCancelsThePlannedTimer) {
  // The spot grant at 240 s lands in a market already above p_on = 0.06
  // (but under the 0.24 bid): adopt() arms a planned timer with the
  // crossing detector fresh. The dip at 10 min must still reach the
  // scheduler and cancel that timer; skipping it would let the timer fire.
  const std::vector<std::pair<sim::SimTime, double>> steps{
      {0, 0.02}, {60 * sim::kSecond, 0.10}, {10 * sim::kMinute, 0.03}};
  expect_same_hand_run(run_hand_built(steps, false), run_hand_built(steps, true));
}

TEST(BandRouting, CrossingFlipsAtTheExactUlp) {
  // Effective price == p_on is not a crossing; one ulp above is. A band
  // edge off by one ulp either way would skip or invent a crossing. The
  // excursion is a minute long, so the planned move it arms is still
  // waiting for its destination when the price falls back.
  const double pon = 0.06;
  const double above = std::nextafter(pon, 1.0);
  const std::vector<std::pair<sim::SimTime, double>> steps{
      {0, 0.02},
      {sim::kHour, pon},
      {2 * sim::kHour, above},
      {2 * sim::kHour + sim::kMinute, pon},
      {4 * sim::kHour, 0.02}};
  const HandRun band = run_hand_built(steps, false);
  expect_same_hand_run(band, run_hand_built(steps, true));
  EXPECT_EQ(band.crossings, 2u);  // up at 2 h, down a minute later
  // Only the two steps that cross wake the scheduler.
  EXPECT_EQ(band.price_deliveries, 2u);
}

// --- perfbench-shaped fleets: the bytes hold and deliveries fall ------------

// perfbench's fleet_calm and fleet_storm specs (perfbench/harness/fleet.cpp)
// at 200 services.
std::pair<Scenario, FleetConfig> perfbench_fleet(bool storm) {
  Scenario s;
  FleetConfig cfg;
  s.seed = metrics::run_seed(20150615, 0);
  s.horizon = 30 * kDay;
  cfg.num_services = 200;
  if (storm) {
    s.regions = {"us-east-1a", "us-east-1b"};
    cfg.home_markets = {{"us-east-1a", InstanceSize::kSmall},
                        {"us-east-1b", InstanceSize::kSmall},
                        {"us-east-1a", InstanceSize::kLarge},
                        {"us-east-1b", InstanceSize::kXLarge}};
    for (const auto kind : faults::kAllFaultKinds) s.fault_plan.with_rate(kind, 0.05);
  } else {
    s.regions = {"us-west-1a", "eu-west-1a"};
    cfg.home_markets = {{"eu-west-1a", InstanceSize::kSmall},
                        {"us-west-1a", InstanceSize::kSmall},
                        {"eu-west-1a", InstanceSize::kMedium}};
  }
  cfg.service_template = proactive_config(cfg.home_markets.front());
  return {s, cfg};
}

void expect_deliveries_fall(bool storm) {
  const auto [scenario, config] = perfbench_fleet(storm);
  const FleetRun band = run_fleet(scenario, config, /*oracle=*/false);
  const FleetRun oracle = run_fleet(scenario, config, /*oracle=*/true);
  expect_same_run(band, oracle);
  // The oracle makes one delivery per (step, listener).
  EXPECT_GT(oracle.price_deliveries, 200'000u);
  EXPECT_LE(band.price_deliveries * 100, oracle.price_deliveries)
      << band.price_deliveries << " of " << oracle.price_deliveries;
}

TEST(BandRouting, StormFleetDeliversUnderOnePercent) { expect_deliveries_fall(true); }

TEST(BandRouting, CalmFleetDeliversUnderOnePercent) { expect_deliveries_fall(false); }

// --- concurrent runs --------------------------------------------------------

TEST(BandRouting, ConcurrentFleetsMatchSerialRuns) {
  // Sweep workers each run their own World and banded watcher; nothing a
  // band depends on may be shared between them.
  std::vector<MatrixParam> cells{
      {Policy::kProactive, MarketScope::kMultiMarket, true},
      {Policy::kForecast, MarketScope::kMultiRegion, false},
      {Policy::kPureSpotForecast, MarketScope::kSingleMarket, true},
      {Policy::kPortfolio, MarketScope::kMultiRegion, true}};
  std::vector<FleetRun> serial;
  for (const auto& cell : cells) {
    serial.push_back(run_fleet(matrix_scenario(cell), matrix_fleet(cell), false));
  }
  exec::ThreadPool pool(4);
  std::vector<std::future<FleetRun>> parallel;
  for (const auto& cell : cells) {
    parallel.push_back(pool.submit(
        [cell] { return run_fleet(matrix_scenario(cell), matrix_fleet(cell), false); }));
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const FleetRun got = parallel[i].get();
    EXPECT_TRUE(got.jsonl == serial[i].jsonl) << "cell " << i;
    EXPECT_EQ(got.metrics, serial[i].metrics) << "cell " << i;
    EXPECT_EQ(got.price_deliveries, serial[i].price_deliveries) << "cell " << i;
  }
}

}  // namespace
}  // namespace spothost::sched

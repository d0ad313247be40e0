// The two-clocks parity contract: replaying a recorded price stream through
// live::WallClock — in fast-replay mode or paced — produces the
// *byte-identical* decision trace the simulation produces from the same
// prices.
//
// This is the license for serving live with the simulated policy layer — any
// behavioural drift between the sim path (trace-fed SpotMarkets replaying
// clock events) and the live path (FeedDriver pushing a PriceFeed) shows up
// here as a one-byte diff.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "live/feed_driver.hpp"
#include "live/hosting_session.hpp"
#include "live/price_feed.hpp"
#include "live/wall_clock.hpp"
#include "metrics/experiment.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/sink.hpp"
#include "sched/baselines.hpp"
#include "sched/market_traces.hpp"

namespace spothost {
namespace {

using cloud::InstanceSize;
using sim::kDay;

sched::Scenario parity_scenario(std::uint64_t seed) {
  sched::Scenario s;
  s.seed = seed;
  s.horizon = 5 * kDay;
  s.regions = {"us-east-1a", "us-east-1b"};
  s.sizes = {InstanceSize::kSmall, InstanceSize::kLarge};
  return s;
}

std::string sim_trace(const sched::Scenario& scenario,
                      const sched::SchedulerConfig& config,
                      std::shared_ptr<const sched::MarketTraceSet> traces) {
  std::ostringstream os;
  obs::Tracer tracer;
  obs::JsonlSink sink(os);
  tracer.add_sink(&sink);
  (void)metrics::run_hosting_scenario(scenario, config, std::move(traces),
                                      &tracer, nullptr);
  return os.str();
}

struct LiveRun {
  std::string trace;  ///< JSONL decision stream
  double total_cost = 0.0;
};

// The live path of spothost_serve: a HostingSession on a WallClock at
// `speed`, its push-fed markets driven by a FeedDriver replaying `traces`.
LiveRun live_run(const sched::Scenario& scenario,
                 const sched::SchedulerConfig& config,
                 const sched::MarketTraceSet& traces,
                 double speed = live::WallClock::kMaxSpeed) {
  std::ostringstream os;
  obs::Tracer tracer;
  obs::JsonlSink sink(os);
  tracer.add_sink(&sink);

  live::WallClock clock(live::WallClock::Options{speed, 0});
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
  clock.run_until(scenario.horizon);
  session.finalize(scenario.horizon);
  tracer.flush();
  return LiveRun{os.str(), session.provider().ledger().total_cost()};
}

TEST(ServeParity, FastReplayMatchesSimulationByteForByte) {
  const auto scenario =
      sched::normalized_scenario(parity_scenario(/*seed=*/7));
  auto cfg = sched::proactive_config({"us-east-1a", InstanceSize::kSmall});
  cfg.scope = sched::MarketScope::kMultiMarket;
  const auto traces = sched::MarketTraceSet::generate(scenario);

  const std::string sim = sim_trace(scenario, cfg, traces);
  const std::string live = live_run(scenario, cfg, *traces).trace;

  ASSERT_FALSE(sim.empty());
  EXPECT_EQ(sim.size(), live.size());
  EXPECT_EQ(sim, live) << "sim and fast-replay decision streams diverged";
}

TEST(ServeParity, ParityHoldsAcrossSeedsAndPolicies) {
  for (const std::uint64_t seed : {1u, 4242u}) {
    const auto scenario = sched::normalized_scenario(parity_scenario(seed));
    auto cfg = sched::reactive_config({"us-east-1b", InstanceSize::kLarge});
    const auto traces = sched::MarketTraceSet::generate(scenario);
    EXPECT_EQ(sim_trace(scenario, cfg, traces),
              live_run(scenario, cfg, *traces).trace)
        << "seed " << seed;
  }
}

TEST(ServeParity, PacedReplayMatchesSimulationByteForByte) {
  // A finite speed takes the paced path: run_until() in wall-mapped slices
  // with sleeps between them. At 1e8 virtual ms per wall ms the 5-day
  // scenario takes about 4 ms of wall time.
  const auto scenario =
      sched::normalized_scenario(parity_scenario(/*seed=*/7));
  auto cfg = sched::proactive_config({"us-east-1a", InstanceSize::kSmall});
  cfg.scope = sched::MarketScope::kMultiMarket;
  const auto traces = sched::MarketTraceSet::generate(scenario);

  EXPECT_EQ(sim_trace(scenario, cfg, traces),
            live_run(scenario, cfg, *traces, /*speed=*/1e8).trace)
      << "sim and paced decision streams diverged";
}

TEST(ServeParity, LiveBillingMatchesSimulation) {
  // Costs come from the push-fed markets' accumulated billing traces; they
  // must integrate to the same dollars the pre-loaded traces give.
  const auto scenario = sched::normalized_scenario(parity_scenario(3));
  auto cfg = sched::proactive_config({"us-east-1a", InstanceSize::kSmall});
  const auto traces = sched::MarketTraceSet::generate(scenario);
  const auto sim_metrics = metrics::run_hosting_scenario(scenario, cfg, traces,
                                                         nullptr, nullptr);

  EXPECT_DOUBLE_EQ(live_run(scenario, cfg, *traces).total_cost,
                   sim_metrics.total_cost);
}

}  // namespace
}  // namespace spothost

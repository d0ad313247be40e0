#include "faults/injector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "obs/event.hpp"
#include "obs/ring_sink.hpp"
#include "obs/sink.hpp"
#include "simcore/rng.hpp"
#include "simcore/simulation.hpp"

namespace spothost::faults {
namespace {

TEST(FaultInjector, EmptyPlanNeverInjectsButCountsOpportunities) {
  sim::Simulation sim;
  sim::RngFactory rng(42);
  FaultInjector injector(sim, rng, FaultPlan{});
  for (int i = 0; i < 50; ++i) {
    for (const FaultKind kind : kAllFaultKinds) {
      EXPECT_FALSE(injector.should_inject(kind));
    }
  }
  for (const FaultKind kind : kAllFaultKinds) {
    EXPECT_EQ(injector.opportunities(kind), 50u);
    EXPECT_EQ(injector.injected(kind), 0u);
  }
  EXPECT_EQ(injector.injected_total(), 0u);
}

TEST(FaultInjector, ScheduledOpportunityReplaysExactly) {
  sim::Simulation sim;
  sim::RngFactory rng(42);
  FaultPlan plan;
  plan.at_opportunity(FaultKind::kAllocTimeout, 2);
  plan.at_opportunity(FaultKind::kAllocTimeout, 5);
  FaultInjector injector(sim, rng, plan);
  std::vector<bool> hits;
  for (int i = 0; i < 6; ++i) {
    hits.push_back(injector.should_inject(FaultKind::kAllocTimeout));
  }
  EXPECT_EQ(hits, (std::vector<bool>{false, true, false, false, true, false}));
  EXPECT_EQ(injector.injected(FaultKind::kAllocTimeout), 2u);
  EXPECT_EQ(injector.injected_total(), 2u);
}

TEST(FaultInjector, RateOneAlwaysInjects) {
  sim::Simulation sim;
  sim::RngFactory rng(42);
  FaultPlan plan;
  plan.with_rate(FaultKind::kWarningDropped, 1.0);
  FaultInjector injector(sim, rng, plan);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(injector.should_inject(FaultKind::kWarningDropped));
  }
  // The other kinds stay silent.
  EXPECT_FALSE(injector.should_inject(FaultKind::kWarningDelayed));
}

TEST(FaultInjector, SameSeedSamePlanReproducesDecisions) {
  FaultPlan plan;
  plan.with_rate(FaultKind::kAllocInsufficientCapacity, 0.3);

  const auto decisions = [&plan](std::uint64_t seed) {
    sim::Simulation sim;
    sim::RngFactory rng(seed);
    FaultInjector injector(sim, rng, plan);
    std::vector<bool> out;
    for (int i = 0; i < 200; ++i) {
      out.push_back(
          injector.should_inject(FaultKind::kAllocInsufficientCapacity));
    }
    return out;
  };

  EXPECT_EQ(decisions(7), decisions(7));
  EXPECT_NE(decisions(7), decisions(8));  // and the seed actually matters
}

TEST(FaultInjector, ArmingOneKindDoesNotPerturbAnother) {
  const auto capacity_decisions = [](bool also_arm_timeout) {
    sim::Simulation sim;
    sim::RngFactory rng(99);
    FaultPlan plan;
    plan.with_rate(FaultKind::kAllocInsufficientCapacity, 0.4);
    if (also_arm_timeout) plan.with_rate(FaultKind::kAllocTimeout, 0.4);
    FaultInjector injector(sim, rng, plan);
    std::vector<bool> out;
    for (int i = 0; i < 200; ++i) {
      // Interleave draws of both kinds; each kind has its own named stream,
      // so the interleaving must not change the capacity-kind sequence.
      (void)injector.should_inject(FaultKind::kAllocTimeout);
      out.push_back(
          injector.should_inject(FaultKind::kAllocInsufficientCapacity));
    }
    return out;
  };
  EXPECT_EQ(capacity_decisions(false), capacity_decisions(true));
}

TEST(FaultInjector, ScheduledHitsDoNotShiftTheRateStream) {
  // A scheduled hit is an index lookup, not a draw: adding one must leave
  // every rate-based decision at other opportunities unchanged.
  const auto rate_decisions = [](bool with_scheduled) {
    sim::Simulation sim;
    sim::RngFactory rng(123);
    FaultPlan plan;
    plan.with_rate(FaultKind::kLiveCopyAbort, 0.3);
    if (with_scheduled) plan.at_opportunity(FaultKind::kLiveCopyAbort, 4);
    FaultInjector injector(sim, rng, plan);
    std::vector<bool> out;
    for (int i = 0; i < 100; ++i) {
      out.push_back(injector.should_inject(FaultKind::kLiveCopyAbort));
    }
    return out;
  };
  const auto base = rate_decisions(false);
  auto with_sched = rate_decisions(true);
  // Opportunity 4 (index 3) is forced; everything else must match.
  EXPECT_TRUE(with_sched[3]);
  with_sched[3] = base[3];
  EXPECT_EQ(with_sched, base);
}

TEST(FaultInjector, InjectionEmitsTraceEvent) {
  sim::Simulation sim;
  sim::RngFactory rng(42);
  obs::Tracer tracer;
  obs::RingBufferSink ring(16);
  tracer.add_sink(&ring);
  sim.set_tracer(&tracer);

  FaultPlan plan;
  plan.at_opportunity(FaultKind::kCheckpointStall, 2);
  FaultInjector injector(sim, rng, plan);
  EXPECT_FALSE(injector.should_inject(
      FaultKind::kCheckpointStall, [] { return std::string("m"); }, 1));
  EXPECT_TRUE(injector.should_inject(
      FaultKind::kCheckpointStall, [] { return std::string("us-east-1a/small"); }, 7));

  const auto events = ring.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events.front().kind, obs::EventKind::kFaultInjected);
  EXPECT_EQ(events.front().code,
            static_cast<std::uint8_t>(FaultKind::kCheckpointStall));
  EXPECT_EQ(events.front().instance, 7u);
  EXPECT_EQ(events.front().value, 2.0);  // the opportunity index that hit
  EXPECT_EQ(events.front().market, "us-east-1a/small");
}

// The market is named for the kFaultInjected event only: an untraced
// opportunity, hit or miss, builds no string.
TEST(FaultInjector, MarketNameIsBuiltOnlyForATracedHit) {
  FaultPlan plan;
  plan.at_opportunity(FaultKind::kAllocTimeout, 2);
  plan.at_opportunity(FaultKind::kAllocTimeout, 5);
  int named = 0;
  const auto name = [&named] {
    ++named;
    return std::string("us-east-1a/small");
  };
  const auto six_opportunities = [&](obs::Tracer* tracer) {
    sim::Simulation sim;
    sim.set_tracer(tracer);
    sim::RngFactory rng(42);
    FaultInjector injector(sim, rng, plan);
    for (int i = 0; i < 6; ++i) (void)injector.should_inject(FaultKind::kAllocTimeout, name, 3);
    EXPECT_EQ(injector.injected(FaultKind::kAllocTimeout), 2u);
  };

  six_opportunities(nullptr);
  EXPECT_EQ(named, 0);

  obs::Tracer no_sinks;
  six_opportunities(&no_sinks);
  EXPECT_EQ(named, 0);

  obs::Tracer tracer;
  obs::RingBufferSink ring(16);
  tracer.add_sink(&ring);
  six_opportunities(&tracer);
  EXPECT_EQ(named, 2);  // the two hits, never the four misses
  ASSERT_EQ(ring.events().size(), 2u);
  EXPECT_EQ(ring.events().front().market, "us-east-1a/small");
}

TEST(FaultInjector, HitSequenceIsTheSameTracedOrNot) {
  const auto hits = [](bool traced) {
    sim::Simulation sim;
    obs::Tracer tracer;
    obs::RingBufferSink ring(4);
    tracer.add_sink(&ring);
    if (traced) sim.set_tracer(&tracer);
    sim::RngFactory rng(2015);
    FaultPlan plan;
    plan.with_rate(FaultKind::kWarningDropped, 0.3);
    plan.with_rate(FaultKind::kWarningDelayed, 0.3);
    FaultInjector injector(sim, rng, plan);
    std::vector<bool> out;
    for (int i = 0; i < 1000; ++i) {
      const auto kind = i % 2 == 0 ? FaultKind::kWarningDropped : FaultKind::kWarningDelayed;
      out.push_back(injector.should_inject(kind, [] { return std::string("m"); }, 1));
    }
    return out;
  };
  const auto untraced = hits(false);
  EXPECT_EQ(untraced, hits(true));
  EXPECT_NE(std::count(untraced.begin(), untraced.end(), true), 0);
}

TEST(FaultInjector, InvalidPlanThrowsAtConstruction) {
  sim::Simulation sim;
  sim::RngFactory rng(42);
  FaultPlan plan;
  plan.rate[0] = -0.5;
  EXPECT_THROW((FaultInjector{sim, rng, plan}), std::invalid_argument);
}

}  // namespace
}  // namespace spothost::faults

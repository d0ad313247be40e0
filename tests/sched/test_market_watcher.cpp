// MarketWatcher: one provider subscription per market no matter how many
// listeners, deterministic fan-out order, typed hour-tick and revocation
// triggers, price-band routing and its deliver-to-all oracle. Plus the
// CrossingDetector edge semantics the scheduler's price-crossing events
// (and its price bands) rely on.
#include "sched/market_watcher.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cloud/billing.hpp"
#include "market_watcher_test_peer.hpp"
#include "simcore/simulation.hpp"

namespace spothost::sched {
namespace {

// The production surface is the TriggerListener interface (CloudScheduler
// implements it directly); tests wrap ad-hoc lambdas in an adapter the
// fixture owns.
struct FnListener final : MarketWatcher::TriggerListener {
  std::function<void(const MarketWatcher::Trigger&)> fn;
  explicit FnListener(std::function<void(const MarketWatcher::Trigger&)> f)
      : fn(std::move(f)) {}
  void on_trigger(const MarketWatcher::Trigger& t) override { fn(t); }
};

// A listener with a settable band: counts its price deliveries.
struct BandListener final : MarketWatcher::TriggerListener {
  PriceBand band;
  int deliveries = 0;
  std::function<void()> on_delivery;
  void on_trigger(const MarketWatcher::Trigger& t) override {
    if (t.kind != MarketWatcher::TriggerKind::kPriceChange) return;
    ++deliveries;
    if (on_delivery) on_delivery();
  }
  [[nodiscard]] PriceBand price_band(const cloud::MarketId&) const override {
    return band;
  }
};

constexpr double kInf = std::numeric_limits<double>::infinity();

using cloud::InstanceSize;
using cloud::MarketId;
using sim::kHour;
using sim::kMinute;

const MarketId kA{"us-east-1a", InstanceSize::kSmall};
const MarketId kB{"us-east-1b", InstanceSize::kSmall};
// Push-mode markets: a test steps them synchronously with push_price().
const MarketId kPushA{"push-a", InstanceSize::kSmall};
const MarketId kPushB{"push-b", InstanceSize::kSmall};
constexpr sim::SimTime kHorizon = 6 * kHour;

class MarketWatcherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<sim::RngFactory>(7);
    sim_ = std::make_unique<sim::Simulation>();
    provider_ = std::make_unique<cloud::CloudProvider>(*sim_, *rng_);
    add_market(kA, {{0, 0.02}, {kHour, 0.04}, {2 * kHour, 0.03}});
    add_market(kB, {{0, 0.05}, {3 * kHour, 0.01}});
    provider_->add_live_market(kPushA, 0.06);
    provider_->add_live_market(kPushB, 0.06);
    cloud::AllocationLatency lat;
    lat.on_demand_cv = 0.0;
    lat.spot_mean_s = 60.0;
    lat.spot_cv = 0.0;
    provider_->set_allocation_latency("us-east-1a", lat);
    provider_->start();
    provider_->market(kPushA).prime(0.02);
    provider_->market(kPushB).prime(0.05);
    watcher_ = std::make_unique<MarketWatcher>(*sim_, *provider_);
  }

  void add_market(const MarketId& market,
                  std::vector<std::pair<sim::SimTime, double>> steps) {
    trace::PriceTrace t;
    for (const auto& [at, price] : steps) t.append(at, price);
    t.set_end(kHorizon);
    provider_->add_market(market, std::move(t), 0.06);
  }

  MarketWatcher::ListenerId add_listener(
      std::function<void(const MarketWatcher::Trigger&)> fn) {
    owned_.push_back(std::make_unique<FnListener>(std::move(fn)));
    return watcher_->add_listener(owned_.back().get());
  }

  std::vector<std::unique_ptr<FnListener>> owned_;
  std::unique_ptr<sim::RngFactory> rng_;
  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<cloud::CloudProvider> provider_;
  std::unique_ptr<MarketWatcher> watcher_;
};

TEST_F(MarketWatcherTest, SubscribesToEachProviderFeedOnce) {
  const auto l1 = add_listener([](const MarketWatcher::Trigger&) {});
  const auto l2 = add_listener([](const MarketWatcher::Trigger&) {});
  watcher_->watch(l1, {kA, kB});
  watcher_->watch(l2, {kA});
  watcher_->watch(l2, {kA});  // duplicate interest is a no-op

  EXPECT_EQ(watcher_->provider_subscriptions(), 2u);
  EXPECT_EQ(watcher_->listener_count(), 2u);
  // Each market feed: the provider's own revocation logic + the watcher.
  EXPECT_EQ(provider_->market(kA).observer_count(), 2u);
  EXPECT_EQ(provider_->market(kB).observer_count(), 2u);
}

TEST_F(MarketWatcherTest, DeliversPriceTriggersToInterestedListenersOnly) {
  std::vector<std::pair<MarketId, double>> seen_a;
  std::vector<std::pair<MarketId, double>> seen_b;
  const auto la = add_listener([&](const MarketWatcher::Trigger& t) {
    ASSERT_EQ(t.kind, MarketWatcher::TriggerKind::kPriceChange);
    seen_a.emplace_back(t.market, t.price);
  });
  const auto lb = add_listener([&](const MarketWatcher::Trigger& t) {
    seen_b.emplace_back(t.market, t.price);
  });
  watcher_->watch(la, {kA});
  watcher_->watch(lb, {kB});
  sim_->run_until(kHorizon);

  ASSERT_EQ(seen_a.size(), 2u);  // steps at 1 h and 2 h (t=0 is initial state)
  EXPECT_EQ(seen_a[0], (std::pair{kA, 0.04}));
  EXPECT_EQ(seen_a[1], (std::pair{kA, 0.03}));
  ASSERT_EQ(seen_b.size(), 1u);
  EXPECT_EQ(seen_b[0], (std::pair{kB, 0.01}));
}

TEST_F(MarketWatcherTest, FanOutFollowsRegistrationOrder) {
  std::vector<int> order;
  const auto first = add_listener(
      [&](const MarketWatcher::Trigger&) { order.push_back(1); });
  const auto second = add_listener(
      [&](const MarketWatcher::Trigger&) { order.push_back(2); });
  // Watch in reverse registration order: delivery follows watch order,
  // which is what fleet determinism keys on.
  watcher_->watch(second, {kA});
  watcher_->watch(first, {kA});
  sim_->run_until(90 * kMinute);  // one step at 1 h
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST_F(MarketWatcherTest, RemovedListenerReceivesNothing) {
  int fired = 0;
  const auto id = add_listener(
      [&](const MarketWatcher::Trigger&) { ++fired; });
  watcher_->watch(id, {kA});
  watcher_->remove_listener(id);
  sim_->run_until(kHorizon);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(watcher_->listener_count(), 0u);
  // The provider-side subscription is retained (bounded by market count).
  EXPECT_EQ(watcher_->provider_subscriptions(), 1u);
}

TEST_F(MarketWatcherTest, ListenerRemovedMidPassReceivesNothing) {
  // The documented contract: once remove_listener returns, no further
  // triggers arrive — including in the price pass that is already running.
  std::vector<int> order;
  MarketWatcher::ListenerId victim = MarketWatcher::kInvalidListener;
  const auto remover = add_listener([&](const MarketWatcher::Trigger&) {
    order.push_back(1);
    watcher_->remove_listener(victim);
  });
  victim = add_listener([&](const MarketWatcher::Trigger&) { order.push_back(2); });
  const auto last = add_listener(
      [&](const MarketWatcher::Trigger&) { order.push_back(3); });
  watcher_->watch(remover, {kA});
  watcher_->watch(victim, {kA});
  watcher_->watch(last, {kA});
  sim_->run_until(90 * kMinute);  // one step at 1 h
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(watcher_->listener_count(), 2u);
}

TEST_F(MarketWatcherTest, ReentrantPriceStepDeliversEachMarketOnceInOrder) {
  // A listener's on_trigger may push a price on another market, which
  // dispatches synchronously inside the outer pass. Every listener must
  // still receive exactly its own market's trigger, once, and recipients
  // of each market fire in registration order.
  std::vector<std::pair<int, std::pair<MarketId, double>>> seen;
  auto record = [&seen](int who) {
    return [&seen, who](const MarketWatcher::Trigger& t) {
      seen.push_back({who, {t.market, t.price}});
    };
  };
  const auto first = add_listener(record(1));
  const auto reentrant = add_listener([&](const MarketWatcher::Trigger& t) {
    seen.push_back({2, {t.market, t.price}});
    provider_->market(kPushB).push_price(0.01);
  });
  const auto on_b = add_listener(record(3));
  const auto after = add_listener(record(4));
  watcher_->watch(first, {kPushA});
  watcher_->watch(reentrant, {kPushA});
  watcher_->watch(after, {kPushA});
  watcher_->watch(on_b, {kPushB});

  provider_->market(kPushA).push_price(0.03);

  const std::vector<std::pair<int, std::pair<MarketId, double>>> expected{
      {1, {kPushA, 0.03}}, {2, {kPushA, 0.03}}, {3, {kPushB, 0.01}},
      {4, {kPushA, 0.03}}};
  EXPECT_EQ(seen, expected);
}

TEST_F(MarketWatcherTest, HourTickArrivesAsTypedTrigger) {
  std::vector<sim::SimTime> ticks;
  const auto id = add_listener([&](const MarketWatcher::Trigger& t) {
    ASSERT_EQ(t.kind, MarketWatcher::TriggerKind::kHourBoundary);
    ticks.push_back(sim_->now());
  });
  const auto ev = watcher_->schedule_hour_tick(id, 2 * kHour);
  (void)ev;
  watcher_->schedule_hour_tick(id, 4 * kHour);
  sim_->run_until(kHorizon);
  EXPECT_EQ(ticks, (std::vector<sim::SimTime>{2 * kHour, 4 * kHour}));
}

TEST_F(MarketWatcherTest, CancelledHourTickNeverFires) {
  int fired = 0;
  const auto id = add_listener(
      [&](const MarketWatcher::Trigger&) { ++fired; });
  auto ev = watcher_->schedule_hour_tick(id, 2 * kHour);
  EXPECT_TRUE(ev.cancel());
  sim_->run_until(kHorizon);
  EXPECT_EQ(fired, 0);
}

TEST_F(MarketWatcherTest, ArmedRevocationRoutesWarningToListener) {
  // Bid low enough that kA's step to 0.04 at t=1h outbids the instance.
  std::vector<MarketWatcher::Trigger> warnings;
  const auto id = add_listener([&](const MarketWatcher::Trigger& t) {
    if (t.kind == MarketWatcher::TriggerKind::kRevocation) warnings.push_back(t);
  });
  cloud::InstanceId granted = cloud::kInvalidInstance;
  provider_->request_spot(
      kA, 0.03,
      [&](cloud::InstanceId iid) {
        granted = iid;
        watcher_->arm_revocation(id, iid);
      },
      [](cloud::AllocFailure) { FAIL() << "spot request should be granted at 0.02"; });
  sim_->run_until(kHorizon);

  ASSERT_NE(granted, cloud::kInvalidInstance);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_EQ(warnings[0].instance, granted);
  EXPECT_EQ(warnings[0].t_term, kHour + provider_->grace_period());
}

TEST_F(MarketWatcherTest, OverlappingAndRepeatedWatchesDeliverOncePerStep) {
  int fired = 0;
  const auto id = add_listener([&](const MarketWatcher::Trigger& t) {
    if (t.kind == MarketWatcher::TriggerKind::kPriceChange && t.market == kPushA) {
      ++fired;
    }
  });
  watcher_->watch(id, {kPushA, kPushB});
  watcher_->watch(id, {kPushB, kPushA});
  watcher_->watch(id, {kPushA, kPushA});
  provider_->market(kPushA).push_price(0.03);
  provider_->market(kPushA).push_price(0.04);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(watcher_->price_deliveries(), 2u);
  EXPECT_EQ(watcher_->provider_subscriptions(), 2u);
}

TEST_F(MarketWatcherTest, DefaultBandWakesOnEveryStep) {
  // FnListener does not override price_band: full wake, as before bands.
  int fired = 0;
  const auto id = add_listener([&](const MarketWatcher::Trigger&) { ++fired; });
  watcher_->watch(id, {kPushA});
  for (const double p : {0.02, 0.02, 0.5, 0.001}) {
    provider_->market(kPushA).push_price(p);
  }
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(watcher_->price_deliveries(), 4u);
}

TEST_F(MarketWatcherTest, ListenerIsCalledOnlyOutsideItsBand) {
  BandListener listener;
  listener.band = PriceBand{-kInf, 0.05};  // a no-op below 0.05
  const auto id = watcher_->add_listener(&listener);
  watcher_->watch(id, {kPushA});
  auto& market = provider_->market(kPushA);
  market.push_price(0.03);
  market.push_price(0.0499);
  EXPECT_EQ(listener.deliveries, 0);
  market.push_price(0.05);  // lo is inclusive, hi exclusive
  EXPECT_EQ(listener.deliveries, 1);
  listener.band = PriceBand{0.05, kInf};
  watcher_->refresh(id);
  market.push_price(0.07);
  EXPECT_EQ(listener.deliveries, 1);
  market.push_price(0.01);
  EXPECT_EQ(listener.deliveries, 2);
  listener.band = PriceBand::everything();
  watcher_->refresh(id);
  market.push_price(0.5);
  market.push_price(0.001);
  EXPECT_EQ(listener.deliveries, 2);
  EXPECT_EQ(watcher_->price_deliveries(), 2u);
}

TEST_F(MarketWatcherTest, BandIsReReadAfterEachDelivery) {
  // The watcher asks for the band again after each trigger it delivers: a
  // listener that settles inside its band is not woken by the next step.
  BandListener listener;
  listener.on_delivery = [&] { listener.band = PriceBand::everything(); };
  const auto id = watcher_->add_listener(&listener);
  watcher_->watch(id, {kPushA});
  provider_->market(kPushA).push_price(0.03);
  provider_->market(kPushA).push_price(0.04);
  EXPECT_EQ(listener.deliveries, 1);
}

TEST_F(MarketWatcherTest, BandsFollowListenersThroughATombstoneSweep) {
  // Enough listeners that removing most of them triggers a sweep; the
  // survivors' (market, slot) records must follow their moved entries.
  std::vector<std::unique_ptr<BandListener>> listeners;
  std::vector<MarketWatcher::ListenerId> ids;
  for (int i = 0; i < 40; ++i) {
    listeners.push_back(std::make_unique<BandListener>());
    listeners.back()->band = PriceBand::everything();
    ids.push_back(watcher_->add_listener(listeners.back().get()));
    watcher_->watch(ids.back(), {kPushA});
  }
  for (int i = 0; i < 40; ++i) {
    if (i % 10 != 9) watcher_->remove_listener(ids[static_cast<std::size_t>(i)]);
  }
  auto& market = provider_->market(kPushA);
  market.push_price(0.03);  // sweeps 36 of 40 entries
  for (const auto& l : listeners) EXPECT_EQ(l->deliveries, 0);
  // Open one survivor's band: only it may wake.
  listeners[19]->band = PriceBand{};
  watcher_->refresh(ids[19]);
  market.push_price(0.04);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(listeners[static_cast<std::size_t>(i)]->deliveries, i == 19 ? 1 : 0)
        << "listener " << i;
  }
}

TEST_F(MarketWatcherTest, OracleDeliversEveryStepToEveryListener) {
  BandListener listener;
  listener.band = PriceBand::everything();
  const auto id = watcher_->add_listener(&listener);
  watcher_->watch(id, {kPushA});
  MarketWatcherTestPeer::deliver_to_all(*watcher_);
  provider_->market(kPushA).push_price(0.03);
  provider_->market(kPushA).push_price(0.04);
  EXPECT_EQ(listener.deliveries, 2);
  EXPECT_EQ(watcher_->price_deliveries(), 2u);
}

TEST_F(MarketWatcherTest, OracleNamesAListenerWhoseBandWentStale) {
  BandListener fresh;
  BandListener stale;
  const auto fresh_id = watcher_->add_listener(&fresh);
  const auto stale_id = watcher_->add_listener(&stale);
  watcher_->watch(fresh_id, {kPushA});
  watcher_->watch(stale_id, {kPushA});
  MarketWatcherTestPeer::deliver_to_all(*watcher_);
  stale.band = PriceBand::everything();  // changed without a refresh
  try {
    provider_->market(kPushA).push_price(0.03);
    FAIL() << "a stale band went unnoticed";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("listener " + std::to_string(stale_id)),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(fresh.deliveries, 1);
  EXPECT_EQ(stale.deliveries, 0);
}

TEST(CrossingDetector, FirstObservationBelowIsSteadyState) {
  CrossingDetector d;
  EXPECT_EQ(d.observe(false), CrossingDetector::Edge::kNone);
  EXPECT_EQ(d.observe(false), CrossingDetector::Edge::kNone);
}

TEST(CrossingDetector, FirstObservationAboveIsAnUpEdge) {
  CrossingDetector d;
  EXPECT_EQ(d.observe(true), CrossingDetector::Edge::kUp);
  EXPECT_EQ(d.observe(true), CrossingDetector::Edge::kNone);
}

TEST(CrossingDetector, ReportsEachTransitionOnce) {
  CrossingDetector d;
  EXPECT_EQ(d.observe(false), CrossingDetector::Edge::kNone);
  EXPECT_EQ(d.observe(true), CrossingDetector::Edge::kUp);
  EXPECT_EQ(d.observe(true), CrossingDetector::Edge::kNone);
  EXPECT_EQ(d.observe(false), CrossingDetector::Edge::kDown);
  EXPECT_EQ(d.observe(false), CrossingDetector::Edge::kNone);
}

TEST(CrossingDetector, ObservingBelowFirstChangesNoLaterEdge) {
  // A skipped below-threshold tick leaves a fresh detector fresh in effect:
  // for every sequence X, "below, then X" reports X's edges exactly.
  for (int bits = 0; bits < (1 << 6); ++bits) {
    for (int len = 1; len <= 6; ++len) {
      CrossingDetector direct;
      CrossingDetector primed;
      EXPECT_EQ(primed.observe(false), CrossingDetector::Edge::kNone);
      EXPECT_EQ(primed.above(), direct.above());
      for (int i = 0; i < len; ++i) {
        const bool above = ((bits >> i) & 1) != 0;
        EXPECT_EQ(primed.observe(above), direct.observe(above))
            << "sequence " << bits << " length " << len << " step " << i;
        EXPECT_EQ(primed.above(), direct.above());
      }
    }
  }
}

TEST(CrossingDetector, ResetForgetsHistory) {
  CrossingDetector d;
  EXPECT_EQ(d.observe(true), CrossingDetector::Edge::kUp);
  d.reset();
  // After reset, a below-threshold observation is steady state again...
  EXPECT_EQ(d.observe(false), CrossingDetector::Edge::kNone);
  d.reset();
  // ...and an above-threshold one is a fresh up edge.
  EXPECT_EQ(d.observe(true), CrossingDetector::Edge::kUp);
}

}  // namespace
}  // namespace spothost::sched

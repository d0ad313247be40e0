#include "cloud/market.hpp"
#include "simcore/simulation.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <utility>
#include <vector>

namespace spothost::cloud {
namespace {

using sim::kHour;
using sim::kMinute;

/// Runs `on_step` on every price step it hears.
class StepListener final : public SpotMarket::PriceListener {
 public:
  explicit StepListener(std::function<void(const SpotMarket&, double)> on_step)
      : on_step_(std::move(on_step)) {}
  void on_price(const SpotMarket& market, double new_price) override {
    on_step_(market, new_price);
  }

 private:
  std::function<void(const SpotMarket&, double)> on_step_;
};

trace::PriceTrace simple_trace() {
  trace::PriceTrace t;
  t.append(0, 0.02);
  t.append(10 * kMinute, 0.05);
  t.append(20 * kMinute, 0.03);
  t.set_end(kHour);
  return t;
}

TEST(MarketId, EqualityAndString) {
  const MarketId a{"us-east-1a", InstanceSize::kSmall};
  const MarketId b{"us-east-1a", InstanceSize::kSmall};
  const MarketId c{"us-east-1a", InstanceSize::kLarge};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.str(), "us-east-1a/small");
}

TEST(MarketId, HashDistinguishesSizes) {
  const MarketIdHash h;
  EXPECT_NE(h(MarketId{"r", InstanceSize::kSmall}),
            h(MarketId{"r", InstanceSize::kMedium}));
}

TEST(SpotMarket, RejectsEmptyTrace) {
  sim::Simulation s;
  EXPECT_THROW(SpotMarket(s, MarketId{"r", InstanceSize::kSmall},
                          trace::PriceTrace{}, 0.06),
               std::invalid_argument);
}

TEST(SpotMarket, RejectsNonPositiveOnDemandPrice) {
  sim::Simulation s;
  EXPECT_THROW(
      SpotMarket(s, MarketId{"r", InstanceSize::kSmall}, simple_trace(), 0.0),
      std::invalid_argument);
}

TEST(SpotMarket, PriceTracksSimulationClock) {
  sim::Simulation s;
  SpotMarket m(s, MarketId{"r", InstanceSize::kSmall}, simple_trace(), 0.06);
  m.start();
  EXPECT_DOUBLE_EQ(m.price(), 0.02);
  s.run_until(15 * kMinute);
  EXPECT_DOUBLE_EQ(m.price(), 0.05);
  s.run_until(25 * kMinute);
  EXPECT_DOUBLE_EQ(m.price(), 0.03);
}

TEST(SpotMarket, ObserversFireOnEveryChange) {
  sim::Simulation s;
  SpotMarket m(s, MarketId{"r", InstanceSize::kSmall}, simple_trace(), 0.06);
  std::vector<double> seen;
  StepListener listener([&](const SpotMarket&, double p) { seen.push_back(p); });
  m.subscribe(&listener);
  m.start();
  s.run_until(kHour);
  EXPECT_EQ(seen, (std::vector<double>{0.05, 0.03}));
}

TEST(SpotMarket, ObserverMaySubscribeReentrantly) {
  sim::Simulation s;
  SpotMarket m(s, MarketId{"r", InstanceSize::kSmall}, simple_trace(), 0.06);
  int inner = 0;
  std::vector<std::unique_ptr<StepListener>> spawned;
  StepListener outer([&](const SpotMarket& mk, double) {
    spawned.push_back(
        std::make_unique<StepListener>([&](const SpotMarket&, double) { ++inner; }));
    const_cast<SpotMarket&>(mk).subscribe(spawned.back().get());
  });
  m.subscribe(&outer);
  m.start();
  s.run_until(kHour);
  // First change adds one inner observer; second change fires it once (plus
  // adds another).
  EXPECT_EQ(inner, 1);
}

TEST(SpotMarket, StartTwiceThrows) {
  sim::Simulation s;
  SpotMarket m(s, MarketId{"r", InstanceSize::kSmall}, simple_trace(), 0.06);
  m.start();
  EXPECT_THROW(m.start(), std::logic_error);
}

TEST(SpotMarket, PriceClampedAtHorizonEdge) {
  sim::Simulation s;
  SpotMarket m(s, MarketId{"r", InstanceSize::kSmall}, simple_trace(), 0.06);
  m.start();
  s.run_until(kHour);  // clock parked exactly at trace end
  EXPECT_DOUBLE_EQ(m.price(), 0.03);
}

}  // namespace
}  // namespace spothost::cloud

#include "sched/market_traces.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <future>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/thread_pool.hpp"
#include "trace/csv.hpp"
#include "trace_set_expect.hpp"

namespace spothost::sched {
namespace {

using cloud::InstanceSize;
using sim::kDay;

Scenario one_region_scenario() {
  Scenario s;
  s.seed = 500;
  s.horizon = 5 * kDay;
  s.regions = {"us-east-1a"};
  return s;
}

TEST(MarketTraceSet, GeneratesEveryMarketInRegistrationOrder) {
  const auto traces = MarketTraceSet::generate(one_region_scenario());
  ASSERT_EQ(traces->markets().size(), 4u);  // one region x four sizes
  EXPECT_EQ(traces->markets()[0].id.region, "us-east-1a");
  EXPECT_EQ(traces->markets()[0].id.size, InstanceSize::kSmall);
  EXPECT_EQ(traces->markets()[3].id.size, InstanceSize::kXLarge);
  for (const auto& entry : traces->markets()) {
    EXPECT_FALSE(entry.prices.empty());
    EXPECT_GT(entry.on_demand, 0.0);
    EXPECT_GE(entry.prices.end(), traces->horizon());
  }
  EXPECT_EQ(traces->seed(), 500u);
}

TEST(MarketTraceSet, MatchesWorldInlineGeneration) {
  const auto scenario = one_region_scenario();
  const auto traces = MarketTraceSet::generate(scenario);
  World world(scenario);  // generates inline
  for (const auto& entry : traces->markets()) {
    const auto& market = world.provider().market(entry.id);
    const auto& inline_points = market.price_trace().points();
    const auto& memo_points = entry.prices.points();
    ASSERT_EQ(memo_points.size(), inline_points.size());
    for (std::size_t i = 0; i < memo_points.size(); ++i) {
      EXPECT_EQ(memo_points[i].time, inline_points[i].time);
      EXPECT_EQ(memo_points[i].price, inline_points[i].price);
    }
  }
}

TEST(MarketTraceSet, WorldBuiltOnMemoizedSetIsIdentical) {
  const auto scenario = one_region_scenario();
  const auto traces = MarketTraceSet::generate(scenario);
  World generating(scenario);
  World memoized(scenario, traces);
  const cloud::MarketId home{"us-east-1a", InstanceSize::kSmall};
  const auto& a = generating.provider().market(home).price_trace();
  const auto& b = memoized.provider().market(home).price_trace();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.points()[i].time, b.points()[i].time);
    EXPECT_EQ(a.points()[i].price, b.points()[i].price);
  }
  EXPECT_EQ(memoized.trace_set().get(), traces.get());
}

TEST(MarketTraceSet, RejectsMismatchedScenario) {
  const auto traces = MarketTraceSet::generate(one_region_scenario());
  auto other = one_region_scenario();
  other.seed = 501;  // different traces — the set must not be reused
  EXPECT_THROW(World(other, traces), std::invalid_argument);
}

TEST(MarketTraceSet, PricesThrowsForUnknownMarket) {
  const auto traces = MarketTraceSet::generate(one_region_scenario());
  EXPECT_NO_THROW((void)traces->prices({"us-east-1a", InstanceSize::kSmall}));
  EXPECT_THROW((void)traces->prices({"eu-west-1a", InstanceSize::kSmall}),
               std::out_of_range);
}

TEST(MarketTraceSet, RegionTracesReturnsSizeOrderedTraces) {
  const auto traces = MarketTraceSet::generate(one_region_scenario());
  const auto region = traces->region_traces("us-east-1a");
  ASSERT_EQ(region.size(), 4u);
  EXPECT_TRUE(traces->region_traces("eu-west-1a").empty());
}

TEST(CacheKey, IgnoresFaultPlanAndGracePeriod) {
  const auto base = one_region_scenario();
  auto variant = base;
  variant.grace_period = 300 * sim::kSecond;
  for (const faults::FaultKind kind : faults::kAllFaultKinds) {
    variant.fault_plan.with_rate(kind, 0.1);
  }
  EXPECT_EQ(MarketTraceSet::cache_key(base), MarketTraceSet::cache_key(variant));
}

TEST(CacheKey, DistinguishesTraceInputs) {
  const auto base = one_region_scenario();
  const auto key = MarketTraceSet::cache_key(base);

  auto seeded = base;
  seeded.seed = 501;
  EXPECT_NE(MarketTraceSet::cache_key(seeded), key);

  auto longer = base;
  longer.horizon = 6 * kDay;
  EXPECT_NE(MarketTraceSet::cache_key(longer), key);

  auto wider = base;
  wider.regions = {"us-east-1a", "us-east-1b"};
  EXPECT_NE(MarketTraceSet::cache_key(wider), key);

  // Defaulted regions/sizes normalize to the canonical lists, so an
  // explicit spelling of the defaults is the SAME key.
  Scenario defaulted;
  defaulted.seed = base.seed;
  defaulted.horizon = base.horizon;
  Scenario spelled = defaulted;
  spelled.regions = {"us-east-1a", "us-east-1b", "us-west-1a", "eu-west-1a"};
  EXPECT_EQ(MarketTraceSet::cache_key(defaulted),
            MarketTraceSet::cache_key(spelled));
}

TEST(TraceCache, MemoizesBySeedAndCountsHits) {
  TraceCache cache;
  const auto scenario = one_region_scenario();
  const auto first = cache.get(scenario);
  const auto again = cache.get(scenario);
  EXPECT_EQ(first.get(), again.get());
  EXPECT_EQ(cache.generations(), 1u);
  EXPECT_EQ(cache.hits(), 1u);

  auto other = scenario;
  other.seed = 501;
  const auto different = cache.get(other);
  EXPECT_NE(first.get(), different.get());
  EXPECT_EQ(cache.generations(), 2u);

  cache.clear();
  (void)cache.get(scenario);
  EXPECT_EQ(cache.generations(), 3u);
}

TEST(TraceCache, OverlappingSetsShareMarketEntries) {
  TraceCache cache;
  const auto single = cache.get(one_region_scenario());
  auto pair_scenario = one_region_scenario();
  pair_scenario.regions = {"us-east-1a", "us-east-1b"};
  const auto pair = cache.get(pair_scenario);

  // The pair reuses the single region's four markets: same objects, and
  // only us-east-1b's four are generated for it.
  const cloud::MarketId small{"us-east-1a", InstanceSize::kSmall};
  EXPECT_EQ(&pair->prices(small), &single->prices(small));
  EXPECT_EQ(cache.market_generations(), 8u);
  EXPECT_EQ(cache.generations(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(TraceCache, MatchesUncachedGenerationBitForBit) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "spothost_trace_cache_MatchesUncachedGenerationBitForBit";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    trace::PriceTrace measured;
    measured.append(0, 0.05);
    measured.append(3 * kDay, 0.4);
    measured.append(3 * kDay + sim::kHour, 0.06);
    measured.set_end(30 * kDay);
    trace::save_csv_file(measured, (dir / "us-east-1a_small.csv").string());
  }

  // The paper sweep's ten shapes (four regions alone, six region pairs),
  // one pair in the other region order, a sizes subset, and a trace_dir
  // holding one CSV override; three seeds, all on one cache so that later
  // shapes reuse earlier shapes' markets.
  std::vector<Scenario> shapes;
  const std::vector<std::string> regions{"us-east-1a", "us-east-1b",
                                         "us-west-1a", "eu-west-1a"};
  for (const auto& r : regions) shapes.push_back(Scenario{.regions = {r}});
  for (std::size_t a = 0; a < regions.size(); ++a) {
    for (std::size_t b = a + 1; b < regions.size(); ++b) {
      shapes.push_back(Scenario{.regions = {regions[a], regions[b]}});
    }
  }
  shapes.push_back(Scenario{.regions = {"us-east-1b", "us-east-1a"}});
  shapes.push_back(Scenario{.regions = {"us-west-1a"},
                            .sizes = {InstanceSize::kLarge, InstanceSize::kSmall}});
  shapes.push_back(Scenario{.regions = {"us-east-1a", "us-east-1b"},
                            .trace_dir = dir.string()});

  TraceCache cache;
  for (const std::uint64_t seed : {7u, 8u, 9u}) {
    for (auto scenario : shapes) {
      scenario.seed = seed;
      scenario.horizon = 30 * kDay;
      SCOPED_TRACE(MarketTraceSet::cache_key(scenario));
      expect_same_markets(*cache.get(scenario), *MarketTraceSet::generate(scenario));
    }
  }
  // Per seed: the 16 canonical markets once, plus the trace_dir shape's 8.
  EXPECT_EQ(cache.market_generations(), 3u * (16u + 8u));
  EXPECT_EQ(cache.generations(), 3u * shapes.size());
  std::filesystem::remove_all(dir);
}

// Scratch directory holding one measured-trace CSV for us-east-1a/small.
// Writing a trace shorter than the scenario horizon, or one that starts
// after t = 0, makes generate() throw; rewriting it to cover the horizon
// repairs the same cache key in place.
class TraceCacheFailure : public ::testing::Test {
 protected:
  void SetUp() override {
    // Test name keys the scratch dir: ctest runs each TEST_F in its own
    // process, so concurrent tests of this suite never share a directory.
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("spothost_trace_cache_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void write_trace_ending_at(sim::SimTime end) {
    write_trace(0, end);
  }

  void write_trace(sim::SimTime start, sim::SimTime end) {
    trace::PriceTrace t;
    t.append(start, 0.05);
    t.set_end(end);
    trace::save_csv_file(t, (dir_ / "us-east-1a_small.csv").string());
  }

  Scenario csv_scenario() {
    Scenario s = one_region_scenario();
    s.trace_dir = dir_.string();
    return s;
  }

  std::filesystem::path dir_;
};

TEST_F(TraceCacheFailure, GenerationFailureIsNotCachedAndRetryRegenerates) {
  write_trace_ending_at(kDay);  // scenario horizon is 5 days — too short
  TraceCache cache;
  const auto scenario = csv_scenario();
  EXPECT_THROW((void)cache.get(scenario), std::invalid_argument);

  // The failed future must have been evicted: repairing the input and
  // retrying the SAME key regenerates instead of rethrowing a stale error.
  write_trace_ending_at(6 * kDay);
  const auto set = cache.get(scenario);
  ASSERT_EQ(set->markets().size(), 4u);
  EXPECT_GE(set->prices({"us-east-1a", InstanceSize::kSmall}).end(), 6 * kDay);
  EXPECT_GE(cache.generations(), 2u);
}

TEST_F(TraceCacheFailure, ConcurrentWaitersAllObserveTheException) {
  write_trace_ending_at(kDay);
  TraceCache cache;
  const auto scenario = csv_scenario();

  exec::ThreadPool pool(4);
  std::vector<std::future<bool>> threw;
  threw.reserve(12);
  for (int i = 0; i < 12; ++i) {
    threw.push_back(pool.submit([&cache, scenario] {
      try {
        (void)cache.get(scenario);
        return false;
      } catch (const std::invalid_argument&) {
        return true;  // owner and waiters alike see the generation error
      }
    }));
  }
  for (auto& f : threw) EXPECT_TRUE(f.get());

  write_trace_ending_at(6 * kDay);
  EXPECT_NO_THROW((void)cache.get(scenario));
}

// A measured trace whose first row comes after t = 0 leaves the price
// unknown before it, so billing would fail partway through the run;
// generation must reject it, naming the file.
TEST_F(TraceCacheFailure, TraceStartingAfterScenarioStartIsRejected) {
  write_trace(10 * sim::kMinute, 6 * kDay);
  const auto scenario = csv_scenario();
  try {
    (void)MarketTraceSet::generate(scenario);
    ADD_FAILURE() << "a trace starting at 10 min was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("us-east-1a_small.csv"), std::string::npos) << what;
    EXPECT_NE(what.find("starts after the scenario start"), std::string::npos)
        << what;
  }
  EXPECT_THROW(World{scenario}, std::invalid_argument);

  TraceCache cache;
  EXPECT_THROW((void)cache.get(scenario), std::invalid_argument);
  EXPECT_EQ(cache.market_generations(), 4u);

  // Only the failed market was evicted: a repaired file regenerates it, and
  // the three synthetic markets come from the memo.
  write_trace_ending_at(6 * kDay);
  const auto set = cache.get(scenario);
  EXPECT_EQ(set->prices({"us-east-1a", InstanceSize::kSmall}).start(), 0);
  EXPECT_EQ(cache.market_generations(), 5u);
}

}  // namespace
}  // namespace spothost::sched

// Concurrency stress for the shared-trace contract: one TraceCache and one
// MarketTraceSet hammered from every pool thread at once.
//
// PriceTrace's const queries must be pure reads (per-reader state lives in
// caller-owned trace::PriceCursors), so a memoized set can be queried in
// place by concurrent sweep cells. These tests are the teeth of that claim:
// run them under ThreadSanitizer (SPOTHOST_SANITIZE=thread — the TSan CI
// job does) and any regression back toward a mutable cursor inside
// PriceTrace shows up as a reported data race. Without TSan they still
// assert that every thread computes bit-identical statistics off the shared
// set, which a racing cursor makes probabilistically false.
#include <gtest/gtest.h>

#include <future>
#include <string>
#include <vector>

#include "exec/thread_pool.hpp"
#include "sched/market_traces.hpp"
#include "trace/stats.hpp"
#include "trace_set_expect.hpp"

namespace spothost::sched {
namespace {

using sim::kDay;
using sim::kMinute;

Scenario stress_scenario(std::uint64_t seed = 4242) {
  Scenario s;
  s.seed = seed;
  s.horizon = 3 * kDay;
  s.regions = {"us-east-1a", "us-west-1a"};
  return s;
}

// One reader's full pass over the shared set: monotone point lookups with a
// private cursor, every interval statistic, next-change scheduling lookups,
// cursorless lookups, and a cross-market correlation. Returns a checksum so
// concurrent readers can be compared bit-for-bit.
double hammer(const MarketTraceSet& traces) {
  double sum = 0.0;
  for (const auto& entry : traces.markets()) {
    const trace::PriceTrace& t = entry.prices;
    const sim::SimTime from = t.start();
    const sim::SimTime to = t.end();

    trace::PriceCursor cursor;
    for (sim::SimTime q = from; q < to; q += 7 * kMinute) {
      sum += t.price_at(q, cursor);
    }
    if (const auto next = t.next_change_after(from, cursor)) sum += next->price;

    sum += t.time_average(from, to);
    sum += t.fraction_below(entry.on_demand, from, to);
    sum += t.min_price(from, to) + t.max_price(from, to);
    sum += t.price_at(to - 1);  // cursorless, far from the cursor's position

    const auto grid = t.sample(from, to, 11 * kMinute);
    sum += grid.front() + grid.back();
  }
  sum += trace::trace_correlation(traces.markets().front().prices,
                                  traces.markets().back().prices);
  return sum;
}

TEST(TraceRaceStress, SharedSetQueriedFromAllPoolThreads) {
  const auto traces = MarketTraceSet::generate(stress_scenario());
  const double expected = hammer(*traces);  // serial reference pass

  exec::ThreadPool pool(8);
  std::vector<std::future<double>> results;
  results.reserve(32);
  for (int i = 0; i < 32; ++i) {
    results.push_back(pool.submit([&traces] { return hammer(*traces); }));
  }
  for (auto& r : results) {
    EXPECT_DOUBLE_EQ(r.get(), expected);
  }
}

TEST(TraceRaceStress, TraceCacheAndSharedSetsHammeredTogether) {
  TraceCache cache;
  exec::ThreadPool pool(8);

  // Two distinct keys: every task both races the cache's memoization (get)
  // and the resulting shared sets (hammer), interleaved across threads.
  struct Outcome {
    const MarketTraceSet* set;
    double checksum;
  };
  std::vector<std::future<Outcome>> results;
  results.reserve(32);
  for (int i = 0; i < 32; ++i) {
    const std::uint64_t seed = 4242 + static_cast<std::uint64_t>(i % 2);
    results.push_back(pool.submit([&cache, seed] {
      const auto set = cache.get(stress_scenario(seed));
      return Outcome{set.get(), hammer(*set)};
    }));
  }

  const MarketTraceSet* sets[2] = {nullptr, nullptr};
  double checksums[2] = {0.0, 0.0};
  for (int i = 0; i < 32; ++i) {
    const Outcome o = results[static_cast<std::size_t>(i)].get();
    const int k = i % 2;
    if (sets[k] == nullptr) {
      sets[k] = o.set;
      checksums[k] = o.checksum;
    }
    // One generation per key: every task saw the same shared instance and
    // computed the same statistics off it.
    EXPECT_EQ(o.set, sets[k]);
    EXPECT_DOUBLE_EQ(o.checksum, checksums[k]);
  }
  EXPECT_NE(sets[0], sets[1]);
  EXPECT_EQ(cache.generations(), 2u);
  EXPECT_EQ(cache.hits(), 30u);
}

TEST(TraceRaceStress, OverlappingSetsFromAllPoolThreads) {
  // {A}, {B}, {A,B} and {B,A} of five seeds, requested three times over from
  // every pool thread at once: callers claim overlapping markets in opposite
  // orders and wait on each other's claims. All of them must finish, each
  // distinct market must be generated exactly once, and every set must
  // equal serial generation.
  const std::vector<std::vector<std::string>> shapes{
      {"us-east-1a"},
      {"us-west-1a"},
      {"us-east-1a", "us-west-1a"},
      {"us-west-1a", "us-east-1a"}};
  std::vector<Scenario> requests;
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t seed = 4242; seed < 4247; ++seed) {
      for (const auto& regions : shapes) {
        Scenario s = stress_scenario(seed);
        s.regions = regions;
        requests.push_back(s);
      }
    }
  }

  TraceCache cache;
  exec::ThreadPool pool(8);
  std::vector<std::future<std::shared_ptr<const MarketTraceSet>>> results;
  results.reserve(requests.size());
  for (const auto& s : requests) {
    results.push_back(pool.submit([&cache, s] { return cache.get(s); }));
  }
  std::vector<std::shared_ptr<const MarketTraceSet>> sets;
  for (auto& r : results) sets.push_back(r.get());

  const std::size_t distinct = 5 * shapes.size();
  EXPECT_EQ(cache.market_generations(), 5u * 8u);  // 5 seeds x 2 regions x 4 sizes
  EXPECT_EQ(cache.generations(), distinct);
  EXPECT_EQ(cache.hits(), requests.size() - distinct);
  for (std::size_t i = 0; i < distinct; ++i) {
    const auto serial = MarketTraceSet::generate(requests[i]);
    for (std::size_t j = i; j < requests.size(); j += distinct) {
      EXPECT_EQ(sets[j].get(), sets[i].get());  // one set object per key
    }
    expect_same_markets(*sets[i], *serial);
  }
}

}  // namespace
}  // namespace spothost::sched

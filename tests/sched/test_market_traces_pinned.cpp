// Pins the bytes of every canonical market's generated trace.
//
// The golden JSONL test guards only what one hosting run happens to read; a
// change to the synthetic generator (its RNG draws, their order, the merge
// into a step function) or to how a set assembles its markets shows up here
// first, market by market. Each market's trace is hashed with FNV-1a over
// every point's time and price bits, then end(); the point count is pinned
// beside it.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iterator>

#include "sched/market_traces.hpp"

namespace spothost::sched {
namespace {

struct Pin {
  const char* market;
  std::size_t points;
  std::uint64_t hash;
};

// Seed 20150615, 30 days, the 16 canonical markets in registration order.
constexpr Pin kPins[] = {
    {"us-east-1a/small", 1184, 4447151733622513428ull},
    {"us-east-1a/medium", 1302, 14206966446329786469ull},
    {"us-east-1a/large", 1246, 6786230097386571047ull},
    {"us-east-1a/xlarge", 1211, 983533117663910915ull},
    {"us-east-1b/small", 1257, 5940159205652418018ull},
    {"us-east-1b/medium", 1294, 16547750976056699255ull},
    {"us-east-1b/large", 1205, 4579491226735136686ull},
    {"us-east-1b/xlarge", 1287, 11858676890777147140ull},
    {"us-west-1a/small", 1220, 17790224633128797109ull},
    {"us-west-1a/medium", 1204, 2419756917044289196ull},
    {"us-west-1a/large", 1228, 1038095649972553256ull},
    {"us-west-1a/xlarge", 1265, 12206613533251404849ull},
    {"eu-west-1a/small", 1253, 17704624479913684388ull},
    {"eu-west-1a/medium", 1229, 7065019486758038327ull},
    {"eu-west-1a/large", 1207, 3912186420482100973ull},
    {"eu-west-1a/xlarge", 1302, 12517982296015439639ull},
};

void fnv1a_word(std::uint64_t& h, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (word >> (8 * byte)) & 0xffu;
    h *= 1099511628211ull;
  }
}

std::uint64_t trace_hash(const trace::PriceTrace& t) {
  std::uint64_t h = 14695981039346656037ull;
  for (const auto& p : t.points()) {
    fnv1a_word(h, static_cast<std::uint64_t>(p.time));
    fnv1a_word(h, std::bit_cast<std::uint64_t>(p.price));
  }
  fnv1a_word(h, static_cast<std::uint64_t>(t.end()));
  return h;
}

TEST(MarketTraceSet, CanonicalMarketsArePinned) {
  Scenario scenario;
  scenario.seed = 20150615;
  scenario.horizon = 30 * sim::kDay;
  const auto set = MarketTraceSet::generate(scenario);
  ASSERT_EQ(set->markets().size(), std::size(kPins));
  for (std::size_t i = 0; i < std::size(kPins); ++i) {
    const auto& entry = set->markets()[i];
    SCOPED_TRACE(kPins[i].market);
    EXPECT_EQ(entry.id.str(), kPins[i].market);
    EXPECT_EQ(entry.prices.size(), kPins[i].points);
    EXPECT_EQ(trace_hash(entry.prices), kPins[i].hash);
  }
}

}  // namespace
}  // namespace spothost::sched

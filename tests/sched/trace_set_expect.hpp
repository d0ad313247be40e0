// Bit-for-bit comparison of two MarketTraceSets, shared by the trace
// memo's differential and concurrency tests.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "sched/market_traces.hpp"

namespace spothost::sched {

/// Expects `got` to hold the markets of `want` in the same order, with
/// bit-identical on-demand prices, points and end().
inline void expect_same_markets(const MarketTraceSet& got,
                                const MarketTraceSet& want) {
  EXPECT_EQ(got.key(), want.key());
  ASSERT_EQ(got.markets().size(), want.markets().size());
  for (std::size_t i = 0; i < want.markets().size(); ++i) {
    const auto& g = got.markets()[i];
    const auto& w = want.markets()[i];
    SCOPED_TRACE(w.id.str());
    EXPECT_EQ(g.id.str(), w.id.str());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(g.on_demand),
              std::bit_cast<std::uint64_t>(w.on_demand));
    EXPECT_EQ(g.prices.end(), w.prices.end());
    const auto& gp = g.prices.points();
    const auto& wp = w.prices.points();
    ASSERT_EQ(gp.size(), wp.size());
    const auto [at, unused] = std::mismatch(
        gp.begin(), gp.end(), wp.begin(),
        [](const trace::PricePoint& a, const trace::PricePoint& b) {
          return a.time == b.time && std::bit_cast<std::uint64_t>(a.price) ==
                                         std::bit_cast<std::uint64_t>(b.price);
        });
    EXPECT_TRUE(at == gp.end()) << "first differing point: " << (at - gp.begin());
  }
}

}  // namespace spothost::sched

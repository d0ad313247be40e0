#include "exec/arena.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace spothost::exec {
namespace {

TEST(FixedArena, StartsEmptyWithFixedCapacity) {
  FixedArena<int> a(4);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(a.capacity(), 4u);
}

TEST(FixedArena, EmplaceConstructsInPlace) {
  FixedArena<std::string> a(2);
  a.emplace_back("hello");
  a.emplace_back(3, 'x');
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0], "hello");
  EXPECT_EQ(a[1], "xxx");
}

TEST(FixedArena, ReferencesStayStable) {
  // The whole point versus std::vector: emplace never relocates, so the
  // first element's address survives filling the arena.
  FixedArena<int> a(100);
  int& first = a.emplace_back(7);
  int* const addr = &first;
  for (int i = 1; i < 100; ++i) a.emplace_back(i);
  EXPECT_EQ(&a[0], addr);
  EXPECT_EQ(first, 7);
}

TEST(FixedArena, ThrowsWhenFull) {
  FixedArena<int> a(1);
  a.emplace_back(1);
  EXPECT_THROW(a.emplace_back(2), std::length_error);
  EXPECT_EQ(a.size(), 1u);
}

TEST(FixedArena, AtRangeChecks) {
  FixedArena<int> a(3);
  a.emplace_back(5);
  EXPECT_EQ(a.at(0), 5);
  EXPECT_THROW((void)a.at(1), std::out_of_range);  // within capacity, past size
}

TEST(FixedArena, IterationWalksConstructionOrder) {
  FixedArena<int> a(5);
  for (int i = 0; i < 5; ++i) a.emplace_back(i * 10);
  std::vector<int> seen(a.begin(), a.end());
  EXPECT_EQ(seen, (std::vector<int>{0, 10, 20, 30, 40}));
}

TEST(FixedArena, DestroysInReverseConstructionOrder) {
  struct Tracker {
    explicit Tracker(int id, std::vector<int>& log) : id_(id), log_(log) {}
    ~Tracker() { log_.push_back(id_); }
    int id_;
    std::vector<int>& log_;
  };
  std::vector<int> destroyed;
  {
    FixedArena<Tracker> a(3);
    for (int i = 0; i < 3; ++i) a.emplace_back(i, destroyed);
  }
  EXPECT_EQ(destroyed, (std::vector<int>{2, 1, 0}));
}

TEST(FixedArena, HoldsNonMovableTypes) {
  struct Pinned {
    explicit Pinned(int v) : value(v) {}
    Pinned(const Pinned&) = delete;
    Pinned& operator=(const Pinned&) = delete;
    Pinned(Pinned&&) = delete;
    Pinned& operator=(Pinned&&) = delete;
    int value;
  };
  FixedArena<Pinned> a(2);
  a.emplace_back(1);
  a.emplace_back(2);
  EXPECT_EQ(a[0].value, 1);
  EXPECT_EQ(a[1].value, 2);
}

TEST(FixedArena, ZeroCapacityIsLegal) {
  FixedArena<int> a(0);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.capacity(), 0u);
  EXPECT_THROW(a.emplace_back(1), std::length_error);
}

TEST(FixedArena, HonoursOveralignedTypes) {
  struct alignas(64) Wide {
    double payload[8];
  };
  FixedArena<Wide> a(3);
  for (int i = 0; i < 3; ++i) a.emplace_back();
  for (const Wide& w : a) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&w) % 64, 0u);
  }
}

}  // namespace
}  // namespace spothost::exec

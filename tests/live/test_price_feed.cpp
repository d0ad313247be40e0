// live::PriceFeed implementations: trace replay and the tail -f CSV/JSONL
// reader, including the edge cases a real growing feed file exhibits —
// writers caught mid-line, out-of-order rows, unknown markets, truncation —
// the number grammar the reader accepts, and rows that straddle its read
// blocks.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <ostream>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "live/feed_driver.hpp"
#include "live/price_feed.hpp"
#include "live/wall_clock.hpp"
#include "simcore/engine.hpp"
#include "trace/price_trace.hpp"

namespace spothost {
namespace {

using live::FileTailFeed;
using live::PriceFeed;
using live::PriceUpdate;
using live::TraceReplayFeed;

static_assert(sizeof(PriceUpdate) == 24);
static_assert(std::is_trivially_copyable_v<PriceUpdate>);

class TempFeedFile {
 public:
  explicit TempFeedFile(const std::string& name)
      : path_(::testing::TempDir() + name) {
    std::remove(path_.c_str());
  }
  ~TempFeedFile() { std::remove(path_.c_str()); }

  /// Appends exactly `text` (no newline added) and flushes to disk.
  void append(const std::string& text) {
    std::ofstream out(path_, std::ios::app | std::ios::binary);
    out << text;
    out.flush();
  }

  /// Truncates the file to empty.
  void truncate() {
    std::ofstream out(path_, std::ios::trunc | std::ios::binary);
  }

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// One buffered update, with the market it was read for.
struct Row {
  std::string market;
  sim::SimTime time = 0;
  double price = 0.0;
  bool operator==(const Row&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Row& r) {
  return os << r.market << "@" << r.time << "=" << r.price;
}

/// Pulls every buffered update, market by market in markets() order.
std::vector<Row> drain(FileTailFeed& feed) {
  std::vector<Row> rows;
  for (const auto& market : feed.markets()) {
    PriceUpdate u;
    while (feed.next(market, u) == PriceFeed::Status::kReady) {
      rows.push_back(Row{market, u.time, u.price});
    }
  }
  return rows;
}

/// Parses `text` as a whole file in one pump.
std::vector<Row> parse_whole(const std::string& text, const std::string& name) {
  TempFeedFile f(name);
  f.append(text);
  FileTailFeed feed(f.path());
  feed.pump();
  EXPECT_EQ(feed.rejected_lines(), 0u) << name;
  return drain(feed);
}

/// `bytes` (>= 2) of `#` comment lines, none longer than 64 bytes.
std::string comment_filler(std::size_t bytes) {
  std::string out;
  while (bytes > 0) {
    std::size_t n = std::min<std::size_t>(bytes, 64);
    if (bytes - n == 1) --n;  // never leave a 1-byte remainder ("\n" alone)
    out += '#';
    out.append(n - 2, 'x');
    out += '\n';
    bytes -= n;
  }
  return out;
}

TEST(TraceReplayFeed, ReplaysPointsInOrder) {
  trace::PriceTrace t;
  t.append(0, 0.10);
  t.append(1000, 0.20);
  t.append(5000, 0.15);
  TraceReplayFeed feed;
  feed.add_market("us-east-1a/small", &t);
  ASSERT_EQ(feed.markets(), std::vector<std::string>{"us-east-1a/small"});

  PriceUpdate u;
  ASSERT_EQ(feed.next("us-east-1a/small", u), PriceFeed::Status::kReady);
  EXPECT_EQ(u.time, 0);
  EXPECT_DOUBLE_EQ(u.price, 0.10);
  ASSERT_EQ(feed.next("us-east-1a/small", u), PriceFeed::Status::kReady);
  EXPECT_EQ(u.time, 1000);
  ASSERT_EQ(feed.next("us-east-1a/small", u), PriceFeed::Status::kReady);
  EXPECT_EQ(u.time, 5000);
  EXPECT_EQ(feed.next("us-east-1a/small", u), PriceFeed::Status::kEnd);
  EXPECT_THROW(feed.next("nope", u), std::out_of_range);
}

TEST(FileTailFeed, ParsesCsvHeaderCommentsAndJsonl) {
  TempFeedFile f("feed_basic.csv");
  f.append("# recorded 2026-08-08\n");
  f.append("time,market,price\n");
  f.append("0,us-east-1a/small,0.08\n");
  f.append("{\"t\": 60000, \"market\": \"us-east-1a/small\", \"price\": 0.12}\n");
  f.append("end,120000\n");

  FileTailFeed feed(f.path());
  EXPECT_EQ(feed.pump(), 2u);
  EXPECT_TRUE(feed.ended());
  EXPECT_EQ(feed.end_time(), 120000);
  EXPECT_EQ(feed.rejected_lines(), 0u);

  PriceUpdate u;
  ASSERT_EQ(feed.next("us-east-1a/small", u), PriceFeed::Status::kReady);
  EXPECT_EQ(u.time, 0);
  EXPECT_DOUBLE_EQ(u.price, 0.08);
  ASSERT_EQ(feed.next("us-east-1a/small", u), PriceFeed::Status::kReady);
  EXPECT_EQ(u.time, 60000);
  EXPECT_DOUBLE_EQ(u.price, 0.12);
  EXPECT_EQ(feed.next("us-east-1a/small", u), PriceFeed::Status::kEnd);
}

TEST(FileTailFeed, PartialTrailingLineWaitsForCompletion) {
  // A writer flushed mid-row: the fragment must not be parsed until its
  // newline lands, and must parse correctly once completed.
  TempFeedFile f("feed_partial.csv");
  f.append("0,m/small,0.10\n");
  f.append("60000,m/sm");  // torn mid-market-name, no newline

  FileTailFeed feed(f.path());
  EXPECT_EQ(feed.pump(), 1u);
  PriceUpdate u;
  ASSERT_EQ(feed.next("m/small", u), PriceFeed::Status::kReady);
  EXPECT_EQ(u.time, 0);
  EXPECT_EQ(feed.next("m/small", u), PriceFeed::Status::kWouldBlock);

  f.append("all,0.20\n");  // the rest of the torn row
  EXPECT_EQ(feed.pump(), 1u);
  ASSERT_EQ(feed.next("m/small", u), PriceFeed::Status::kReady);
  EXPECT_EQ(u.time, 60000);
  EXPECT_DOUBLE_EQ(u.price, 0.20);
  EXPECT_EQ(feed.rejected_lines(), 0u);
}

TEST(FileTailFeed, RejectsOutOfOrderRowsWithPosition) {
  TempFeedFile f("feed_ooo.csv");
  f.append("60000,m/small,0.10\n");
  f.append("30000,m/small,0.09\n");  // line 2: goes backwards
  f.append("60000,m/small,0.11\n");  // line 3: equal is also rejected
  f.append("90000,m/small,0.12\n");

  FileTailFeed feed(f.path());
  EXPECT_EQ(feed.pump(), 2u);
  EXPECT_EQ(feed.rejected_lines(), 2u);
  ASSERT_EQ(feed.errors().size(), 2u);
  EXPECT_EQ(feed.errors()[0].line, 2u);
  EXPECT_NE(feed.errors()[0].message.find("out-of-order"), std::string::npos);
  EXPECT_EQ(feed.errors()[1].line, 3u);

  // The well-ordered rows still flow.
  PriceUpdate u;
  ASSERT_EQ(feed.next("m/small", u), PriceFeed::Status::kReady);
  EXPECT_EQ(u.time, 60000);
  ASSERT_EQ(feed.next("m/small", u), PriceFeed::Status::kReady);
  EXPECT_EQ(u.time, 90000);
}

TEST(FileTailFeed, UnknownMarketRowsAreCountedAndDropped) {
  TempFeedFile f("feed_unknown.csv");
  f.append("0,known/small,0.10\n");
  f.append("1000,mystery/xlarge,0.50\n");
  f.append("2000,known/small,0.11\n");

  FileTailFeed::Options o;
  o.markets = {"known/small"};
  FileTailFeed feed(f.path(), o);
  EXPECT_EQ(feed.pump(), 2u);
  EXPECT_EQ(feed.unknown_market_lines(), 1u);
  EXPECT_EQ(feed.rejected_lines(), 0u);  // unknown != malformed
  EXPECT_EQ(feed.markets(), std::vector<std::string>{"known/small"});

  PriceUpdate u;
  ASSERT_EQ(feed.next("known/small", u), PriceFeed::Status::kReady);
  EXPECT_EQ(u.time, 0);
  ASSERT_EQ(feed.next("known/small", u), PriceFeed::Status::kReady);
  EXPECT_EQ(u.time, 2000);
}

TEST(FileTailFeed, MalformedRowsAreRejectedNotFatal) {
  TempFeedFile f("feed_bad.csv");
  f.append("not-a-number,m/small,0.10\n");
  f.append("1000,m/small,zero\n");
  f.append("2000,m/small,-3\n");
  f.append("3000\n");
  f.append("4000,m/small,0.10\n");

  FileTailFeed feed(f.path());
  EXPECT_EQ(feed.pump(), 1u);
  EXPECT_EQ(feed.rejected_lines(), 4u);
  PriceUpdate u;
  ASSERT_EQ(feed.next("m/small", u), PriceFeed::Status::kReady);
  EXPECT_EQ(u.time, 4000);
}

TEST(FileTailFeed, TruncationToShorterFileIsDetectedAndResumed) {
  TempFeedFile f("feed_trunc.csv");
  f.append("0,m/small,0.10\n");
  f.append("1000,m/small,0.20\n");

  FileTailFeed feed(f.path());
  EXPECT_EQ(feed.pump(), 2u);
  PriceUpdate u;
  ASSERT_EQ(feed.next("m/small", u), PriceFeed::Status::kReady);
  ASSERT_EQ(feed.next("m/small", u), PriceFeed::Status::kReady);

  // The file shrinks, then the writer emits one fresh row.
  f.truncate();
  f.append("2000,m/small,0.30\n");
  EXPECT_EQ(feed.pump(), 1u);
  EXPECT_EQ(feed.truncations(), 1u);
  EXPECT_EQ(feed.rejected_lines(), 0u);
  ASSERT_EQ(feed.next("m/small", u), PriceFeed::Status::kReady);
  EXPECT_EQ(u.time, 2000);
  EXPECT_DOUBLE_EQ(u.price, 0.30);
  EXPECT_EQ(feed.next("m/small", u), PriceFeed::Status::kWouldBlock);
}

TEST(FileTailFeed, RewriteGrowingPastOldOffsetRejectsStaleRows) {
  // The nasty rotation: the replacement file is *longer* than the consumed
  // offset, so a size check alone would resume mid-file on unrelated bytes.
  // The head-bytes signature catches it; replayed stale rows are rejected
  // as out-of-order (position reported), the genuinely new row flows.
  TempFeedFile f("feed_rewrite.csv");
  f.append("0,m/small,0.10\n");
  f.append("1000,m/small,0.20\n");

  FileTailFeed feed(f.path());
  EXPECT_EQ(feed.pump(), 2u);
  PriceUpdate u;
  ASSERT_EQ(feed.next("m/small", u), PriceFeed::Status::kReady);
  ASSERT_EQ(feed.next("m/small", u), PriceFeed::Status::kReady);

  f.truncate();
  f.append("500,m/small,0.05\n");   // stale: before delivered 1000
  f.append("1000,m/small,0.20\n");  // stale: equal to delivered 1000
  f.append("2000,m/small,0.30\n");  // new
  EXPECT_EQ(feed.pump(), 1u);
  EXPECT_EQ(feed.truncations(), 1u);
  EXPECT_EQ(feed.rejected_lines(), 2u);
  ASSERT_EQ(feed.errors().size(), 2u);
  EXPECT_EQ(feed.errors()[0].line, 1u);
  ASSERT_EQ(feed.next("m/small", u), PriceFeed::Status::kReady);
  EXPECT_EQ(u.time, 2000);
  EXPECT_EQ(feed.next("m/small", u), PriceFeed::Status::kWouldBlock);
}

TEST(FileTailFeed, ByteIdenticalRotationResumesSeamlessly) {
  // Rotation that re-emits the identical history: the head signature
  // matches, so the feed resumes at its old offset — no replay, no spurious
  // truncation, just the appended row.
  TempFeedFile f("feed_rotate.csv");
  f.append("0,m/small,0.10\n");
  f.append("1000,m/small,0.20\n");

  FileTailFeed feed(f.path());
  EXPECT_EQ(feed.pump(), 2u);
  PriceUpdate u;
  ASSERT_EQ(feed.next("m/small", u), PriceFeed::Status::kReady);
  ASSERT_EQ(feed.next("m/small", u), PriceFeed::Status::kReady);

  f.truncate();
  f.append("0,m/small,0.10\n");
  f.append("1000,m/small,0.20\n");
  f.append("2000,m/small,0.30\n");
  EXPECT_EQ(feed.pump(), 1u);
  EXPECT_EQ(feed.truncations(), 0u);
  EXPECT_EQ(feed.rejected_lines(), 0u);
  ASSERT_EQ(feed.next("m/small", u), PriceFeed::Status::kReady);
  EXPECT_EQ(u.time, 2000);
}

TEST(FileTailFeed, MissingFileIsWouldBlockUntilCreated) {
  TempFeedFile f("feed_late.csv");
  FileTailFeed feed(f.path());
  EXPECT_EQ(feed.pump(), 0u);
  PriceUpdate u;
  EXPECT_EQ(feed.next("m/small", u), PriceFeed::Status::kWouldBlock);
  f.append("0,m/small,0.10\n");
  EXPECT_EQ(feed.pump(), 1u);
  EXPECT_EQ(feed.next("m/small", u), PriceFeed::Status::kReady);
}

TEST(FeedDriver, TailedUpdatesReachTheMarketWithBoundedLatency) {
  // End-to-end tail path: a writer thread grows the file while the serve
  // loop pumps; every update must reach the market, and the read-to-deliver
  // latency stays within a generous CI-safe bound.
  TempFeedFile f("feed_latency.csv");
  f.append("0,us-east-1a/small,0.10\n");

  live::WallClock::Options o;
  o.speed = 10000.0;  // virtual time outruns the feed timestamps
  live::WallClock clock(o);
  sim::RngFactory rng(1);
  cloud::CloudProvider provider(clock, rng);
  provider.add_live_market({"us-east-1a", cloud::InstanceSize::kSmall}, 0.25);
  provider.start();

  FileTailFeed feed(f.path());
  live::FeedDriver driver(clock, provider, feed);
  std::chrono::nanoseconds max_latency{0};
  std::size_t delivered = 0;
  driver.set_delivery_hook([&](const PriceUpdate& u) {
    ++delivered;
    max_latency = std::max(
        max_latency, std::chrono::steady_clock::now() - u.read_at);
  });
  driver.start();
  EXPECT_EQ(driver.primed_markets(), 1u);

  std::thread writer([&f] {
    for (int i = 1; i <= 5; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds{2});
      f.append(std::to_string(i * 10) + ",us-east-1a/small,0." +
               std::to_string(10 + i) + "\n");
    }
    f.append("end,60\n");
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds{30};
  while (!feed.ended() || delivered < 5) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "feed stalled";
    driver.pump();
    clock.poll();
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  writer.join();
  driver.pump();
  clock.poll();

  EXPECT_EQ(delivered, 5u);
  EXPECT_DOUBLE_EQ(provider.market({"us-east-1a", cloud::InstanceSize::kSmall}).price(),
                   0.15);
  // Bounded decision latency: with a 1 ms pump cadence, delivery should be
  // near-instant; 5 s absorbs the worst CI scheduling hiccup.
  EXPECT_LT(max_latency, std::chrono::seconds{5});
}

// --- number grammar and timestamp range -----------------------------------

TEST(FileTailFeed, RejectsOutOfRangeJsonlTimestamps) {
  // A JSONL `t` is a double; only finite values in [0, 2^63) convert to a
  // SimTime. Anything else is a malformed row, not an out-of-order one.
  TempFeedFile f("feed_jsonl_range.csv");
  f.append("{\"t\": 1e300, \"market\": \"m/small\", \"price\": 0.3}\n");
  f.append("{\"t\": nan, \"market\": \"m/small\", \"price\": 0.3}\n");
  f.append("{\"t\": inf, \"market\": \"m/small\", \"price\": 0.3}\n");
  f.append("{\"t\": 9223372036854775808, \"market\": \"m/small\", \"price\": 0.3}\n");
  f.append("{\"t\": 1000, \"market\": \"m/small\", \"price\": 0.3}\n");

  FileTailFeed feed(f.path());
  EXPECT_EQ(feed.pump(), 1u);
  EXPECT_EQ(feed.rejected_lines(), 4u);
  ASSERT_EQ(feed.errors().size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(feed.errors()[i].line, i + 1);
    EXPECT_EQ(feed.errors()[i].message.find("out-of-order"), std::string::npos)
        << feed.errors()[i].message;
  }
  PriceUpdate u;
  ASSERT_EQ(feed.next("m/small", u), PriceFeed::Status::kReady);
  EXPECT_EQ(u.time, 1000);
}

TEST(FileTailFeed, RejectsCsvTimestampsPastInt64) {
  TempFeedFile f("feed_csv_range.csv");
  f.append("99999999999999999999,m/small,0.3\n");
  f.append("9223372036854775808,m/small,0.3\n");
  f.append("1000,m/small,0.3\n");
  f.append("end,99999999999999999999\n");

  FileTailFeed feed(f.path());
  EXPECT_EQ(feed.pump(), 1u);
  EXPECT_EQ(feed.rejected_lines(), 3u);
  EXPECT_FALSE(feed.ended());
  EXPECT_EQ(feed.end_time(), 0);
  PriceUpdate u;
  ASSERT_EQ(feed.next("m/small", u), PriceFeed::Status::kReady);
  EXPECT_EQ(u.time, 1000);
  EXPECT_EQ(feed.next("m/small", u), PriceFeed::Status::kWouldBlock);

  // INT64_MAX itself fits, so it is a valid (if distant) timestamp.
  f.append("9223372036854775807,m/small,0.3\n");
  f.append("end,9223372036854775807\n");
  EXPECT_EQ(feed.pump(), 1u);
  EXPECT_EQ(feed.rejected_lines(), 3u);
  EXPECT_TRUE(feed.ended());
  EXPECT_EQ(feed.end_time(), std::numeric_limits<sim::SimTime>::max());
}

TEST(FileTailFeed, NumberGrammarTable) {
  // What the reader accepts, one row per file. A CSV time is ASCII digits
  // that fit an int64; a price is std::from_chars' decimal grammar covering
  // the whole field; a JSONL number is the same grammar, followed by `,`,
  // `}` or blanks. No leading blanks or `+`, no hex floats, nothing after
  // the number.
  struct Case {
    const char* line;
    bool accepted;
    sim::SimTime time;
    double price;
  };
  constexpr sim::SimTime kMax = std::numeric_limits<sim::SimTime>::max();
  const Case cases[] = {
      {"5,m/small,0.25", true, 5, 0.25},
      {"007,m/small,0.25", true, 7, 0.25},
      {"0,m/small,1", true, 0, 1.0},
      {"5,m/small,2.5e-1", true, 5, 0.25},
      {"5,m/small,2.5E-1", true, 5, 0.25},
      {"5,m/small,.5", true, 5, 0.5},
      {"5,m/small,5.", true, 5, 5.0},
      {"5,m/small,0.25\r", true, 5, 0.25},
      {"9223372036854775807,m/small,0.25", true, kMax, 0.25},
      {"9223372036854775808,m/small,0.25", false, 0, 0.0},
      {"99999999999999999999,m/small,0.25", false, 0, 0.0},
      {" 5,m/small,0.25", false, 0, 0.0},
      {"+5,m/small,0.25", false, 0, 0.0},
      {"-0,m/small,0.25", false, 0, 0.0},
      {"-5,m/small,0.25", false, 0, 0.0},
      {"5 ,m/small,0.25", false, 0, 0.0},
      {"5.0,m/small,0.25", false, 0, 0.0},
      {"5e3,m/small,0.25", false, 0, 0.0},
      {"0x10,m/small,0.25", false, 0, 0.0},
      {",m/small,0.25", false, 0, 0.0},
      {"5,m/small, 0.25", false, 0, 0.0},
      {"5,m/small,+0.25", false, 0, 0.0},
      {"5,m/small,0x1p-2", false, 0, 0.0},
      {"5,m/small,0.25abc", false, 0, 0.0},
      {"5,m/small,0.25 ", false, 0, 0.0},
      {"5,m/small,0.25,extra", false, 0, 0.0},
      {"5,m/small,", false, 0, 0.0},
      {"5,m/small,inf", false, 0, 0.0},
      {"5,m/small,nan", false, 0, 0.0},
      {"5,m/small,1e400", false, 0, 0.0},
      {"5,m/small,0", false, 0, 0.0},
      {"5,,0.25", false, 0, 0.0},
      {R"({"t": 5, "market": "m/small", "price": 0.25})", true, 5, 0.25},
      {R"({"t":5,"market":"m/small","price":0.25})", true, 5, 0.25},
      {R"({"t": 5.9, "market": "m/small", "price": 0.25})", true, 5, 0.25},
      {R"({"t": 5e3, "market": "m/small", "price": 0.25})", true, 5000, 0.25},
      {R"({"price": 0.25, "market": "m/small", "t": 5})", true, 5, 0.25},
      {R"({"t": -1, "market": "m/small", "price": 0.25})", false, 0, 0.0},
      {R"({"t": +5, "market": "m/small", "price": 0.25})", false, 0, 0.0},
      {R"({"t": 0x10, "market": "m/small", "price": 0.25})", false, 0, 0.0},
      {R"({"t": 1e300, "market": "m/small", "price": 0.25})", false, 0, 0.0},
      {R"({"t": nan, "market": "m/small", "price": 0.25})", false, 0, 0.0},
      {R"({"t": 5, "market": "m/small", "price": 0.25x})", false, 0, 0.0},
      {R"({"t": 5, "market": "m/small", "price": 1e400})", false, 0, 0.0},
      {R"({"t": 5, "market": "m/small"})", false, 0, 0.0},
      {R"({"t": 5, "market": "", "price": 0.25})", false, 0, 0.0},
      {"end,120000", true, 120000, 0.0},
      {"end,-0", false, 0, 0.0},
      {"end, 5", false, 0, 0.0},
      {"end,99999999999999999999", false, 0, 0.0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.line);
    TempFeedFile f("feed_grammar.csv");
    f.append(std::string(c.line) + "\n");
    FileTailFeed feed(f.path());
    feed.pump();
    EXPECT_EQ(feed.rejected_lines(), c.accepted ? 0u : 1u);
    if (std::string_view(c.line).starts_with("end,")) {
      EXPECT_EQ(feed.ended(), c.accepted);
      EXPECT_EQ(feed.end_time(), c.time);
      continue;
    }
    const auto rows = drain(feed);
    if (!c.accepted) {
      EXPECT_TRUE(rows.empty());
      continue;
    }
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0], (Row{"m/small", c.time, c.price}));
  }
}

// --- read blocks, CRLF and torn lines ---------------------------------------

const std::string kSmallFeed =
    "time,market,price\n"
    "0,m/small,0.10\n"
    "0,m/large,0.30\n"
    "60000,m/large,0.25\n"
    "{\"t\": 90000, \"market\": \"m/small\", \"price\": 0.125}\n"
    "120000,m/small,0.0625\n"
    "end,180000\n";

TEST(FileTailFeed, RowStraddlingAReadBlockParsesLikeASmallFile) {
  const auto want = parse_whole(kSmallFeed, "feed_block_small.csv");
  ASSERT_EQ(want.size(), 5u);
  constexpr std::size_t kBlock = FileTailFeed::kReadBlockBytes;
  const std::string head = "time,market,price\n0,m/small,0.10\n0,m/large,0.30\n";
  const std::string tail =
      "{\"t\": 90000, \"market\": \"m/small\", \"price\": 0.125}\n"
      "120000,m/small,0.0625\nend,180000\n";
  const std::string straddlers[] = {"60000,m/large,0.25\n", "60000,m/large,0.25\r\n"};
  for (const std::string& straddler : straddlers) {
    // `split` bytes of the straddling row fall in the first block, the rest
    // in the second: from "starts the second block" to "its newline ends
    // the first".
    for (std::size_t split = 0; split <= straddler.size(); ++split) {
      SCOPED_TRACE("split " + std::to_string(split) + " of " +
                   std::to_string(straddler.size()));
      const std::string text =
          comment_filler(kBlock - split - head.size()) + head + straddler + tail;
      ASSERT_EQ(text.find(straddler), kBlock - split);
      EXPECT_EQ(parse_whole(text, "feed_block_big.csv"), want);
    }
  }
  // A comment line longer than a whole block, then the same rows.
  const std::string huge = "#" + std::string(kBlock + kBlock / 2, 'x') + "\n";
  EXPECT_EQ(parse_whole(huge + kSmallFeed, "feed_block_huge.csv"), want);
}

TEST(FileTailFeed, CrlfFileParsesLikeALfFile) {
  const auto want = parse_whole(kSmallFeed, "feed_lf.csv");
  std::string crlf;
  for (const char ch : kSmallFeed) {
    if (ch == '\n') crlf += '\r';
    crlf += ch;
  }
  TempFeedFile f("feed_crlf.csv");
  f.append("# comment\r\n" + crlf);
  FileTailFeed feed(f.path());
  feed.pump();
  EXPECT_EQ(feed.rejected_lines(), 0u);
  EXPECT_TRUE(feed.ended());
  EXPECT_EQ(feed.end_time(), 180000);
  EXPECT_EQ(drain(feed), want);
}

TEST(FileTailFeed, LinesTornAcrossPumpsParseLikeAWholeFile) {
  const auto want = parse_whole(kSmallFeed, "feed_whole.csv");
  for (const std::size_t step : {1u, 2u, 3u, 7u, 16u}) {
    SCOPED_TRACE("step " + std::to_string(step));
    TempFeedFile f("feed_torn.csv");
    FileTailFeed feed(f.path());
    for (std::size_t at = 0; at < kSmallFeed.size(); at += step) {
      f.append(kSmallFeed.substr(at, step));
      feed.pump();
    }
    EXPECT_EQ(feed.rejected_lines(), 0u);
    EXPECT_TRUE(feed.ended());
    EXPECT_EQ(feed.end_time(), 180000);
    EXPECT_EQ(drain(feed), want);
  }
}

// --- the bundled serve feed -------------------------------------------------

void fnv1a_word(std::uint64_t& h, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (word >> (8 * byte)) & 0xffu;
    h *= 1099511628211ull;
  }
}

TEST(FileTailFeed, BundledServeFeedIsPinned) {
  // testdata/serve_feed_1h.csv, per market in first-seen order: the update
  // count and FNV-1a over each update's time and price bits. A change to
  // the reader that moves one bit of one price shows up here.
  struct Pin {
    const char* market;
    std::size_t updates;
    std::uint64_t hash;
  };
  constexpr Pin kPins[] = {
      {"us-east-1a/small", 64, 5508069432411229550ull},
      {"us-east-1b/small", 53, 8961482711555232074ull},
  };
  FileTailFeed feed(std::string(SPOTHOST_TESTDATA_DIR) + "/serve_feed_1h.csv");
  feed.pump();
  EXPECT_EQ(feed.rejected_lines(), 0u);
  EXPECT_TRUE(feed.ended());
  EXPECT_EQ(feed.end_time(), 3600000);
  ASSERT_EQ(feed.markets().size(), std::size(kPins));
  for (std::size_t i = 0; i < std::size(kPins); ++i) {
    const std::string market = feed.markets()[i];
    SCOPED_TRACE(market);
    EXPECT_EQ(market, kPins[i].market);
    std::size_t updates = 0;
    std::uint64_t h = 14695981039346656037ull;
    PriceUpdate u;
    while (feed.next(market, u) == PriceFeed::Status::kReady) {
      ++updates;
      fnv1a_word(h, static_cast<std::uint64_t>(u.time));
      fnv1a_word(h, std::bit_cast<std::uint64_t>(u.price));
    }
    EXPECT_EQ(updates, kPins[i].updates);
    EXPECT_EQ(h, kPins[i].hash);
  }
}

// --- FeedDriver's delivery hook ---------------------------------------------

TEST(FeedDriver, DeliveryHookSeesEveryCommittedUpdate) {
  // Both delivery paths hand the hook the committed update: a scheduled
  // chain event, and an update that is already due when a later pump
  // ingests it (push_price). read_at is the instant its pump began.
  TempFeedFile f("feed_hook.csv");
  f.append("0,us-east-1a/small,0.10\n1000,us-east-1a/small,0.11\n"
           "2000,us-east-1a/small,0.12\n");

  auto engine = sim::make_simulation_engine();
  sim::RngFactory rng(1);
  cloud::CloudProvider provider(*engine, rng);
  const cloud::MarketId id{"us-east-1a", cloud::InstanceSize::kSmall};
  provider.add_live_market(id, 0.25);
  provider.start();

  struct Seen {
    sim::SimTime time;
    double price;
    std::chrono::steady_clock::time_point read_at;
    sim::SimTime now;
  };
  std::vector<Seen> seen;
  FileTailFeed feed(f.path());
  live::FeedDriver driver(*engine, provider, feed);
  driver.set_delivery_hook([&](const PriceUpdate& u) {
    seen.push_back(Seen{u.time, u.price, u.read_at, engine->now()});
  });
  const auto before_first = std::chrono::steady_clock::now();
  driver.start();
  const auto after_first = std::chrono::steady_clock::now();
  engine->run_until(5000);

  // Scheduled path: committed at their own times.
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].time, 1000);
  EXPECT_EQ(seen[0].now, 1000);
  EXPECT_DOUBLE_EQ(seen[0].price, 0.11);
  EXPECT_EQ(seen[1].time, 2000);
  EXPECT_DOUBLE_EQ(seen[1].price, 0.12);
  for (const Seen& s : seen) {
    EXPECT_GE(s.read_at, before_first);
    EXPECT_LE(s.read_at, after_first);
  }

  // Already-due path: 3000 and 4000 are behind the clock when ingested and
  // are pushed at once; 9000 is scheduled.
  f.append("3000,us-east-1a/small,0.13\n4000,us-east-1a/small,0.14\n"
           "9000,us-east-1a/small,0.19\n");
  const auto before_second = std::chrono::steady_clock::now();
  EXPECT_EQ(driver.pump(), 3u);
  const auto after_second = std::chrono::steady_clock::now();
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[2].time, 3000);
  EXPECT_DOUBLE_EQ(seen[2].price, 0.13);
  EXPECT_EQ(seen[3].time, 4000);
  EXPECT_DOUBLE_EQ(seen[3].price, 0.14);
  EXPECT_EQ(seen[3].now, 5000);
  EXPECT_DOUBLE_EQ(provider.market(id).price(), 0.14);

  engine->run_until(10000);
  ASSERT_EQ(seen.size(), 5u);
  EXPECT_EQ(seen[4].time, 9000);
  EXPECT_EQ(seen[4].now, 9000);
  EXPECT_DOUBLE_EQ(seen[4].price, 0.19);
  for (std::size_t i = 2; i < seen.size(); ++i) {
    EXPECT_GE(seen[i].read_at, before_second);
    EXPECT_LE(seen[i].read_at, after_second);
  }
  EXPECT_EQ(driver.delivered(), 5u);
}

}  // namespace
}  // namespace spothost

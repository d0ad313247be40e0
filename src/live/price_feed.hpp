// Price feeds: where live price updates come from.
//
// A PriceFeed is a pull-based, per-market stream of (time, price) updates.
// The FeedDriver (live/feed_driver.hpp) pulls from it and steps the
// push-fed SpotMarkets; the feed itself knows nothing about the cloud layer.
// Two implementations:
//
//   * TraceReplayFeed — adapts pre-loaded trace::PriceTrace objects (e.g. a
//     generated MarketTraceSet or a recorded file). Pure and deterministic:
//     this is the source for the sim/live parity golden test.
//   * FileTailFeed — tails a growing CSV/JSONL file, tail -f style. Reads new
//     bytes in fixed 1 MiB blocks and parses each complete newline-terminated
//     line in place, as a view into the block; only a line that straddles a
//     block or pump boundary is copied (a writer caught mid-line is picked up
//     on the next pump). It resumes at its byte offset, demuxes rows per
//     market, and rejects malformed or out-of-order rows with the line number
//     so operators can find them.
//
// File format (one row per price change; a trailing \r is dropped):
//     time_ms,market,price          e.g.  3600000,us-east-1a/large,0.171
//     {"t":3600000,"market":"us-east-1a/large","price":0.171}   (JSONL)
//     # comment lines and a "time,..." header are skipped
//     end,<time_ms>                 sentinel: feed is complete through time_ms
//
// Numbers are parsed by std::from_chars alone:
//   * a CSV time_ms (the sentinel's too) is ASCII digits that fit an int64:
//     no sign, no blanks, no fraction or exponent;
//   * a CSV price is one decimal floating-point number ([-]digits[.digits]
//     [e[+|-]digits]) that spans the rest of the row;
//   * a JSONL "t" or "price" is the same floating-point number, with
//     optional blanks around it, followed by `,` or `}`. "t" must be finite
//     and in [0, 2^63); a fraction is truncated to whole milliseconds.
// Every price must be finite and > 0. A leading blank or `+`, a hex float, a
// `-0` time and any byte after a number make the row malformed: it is
// rejected and counted, never guessed at.
#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "simcore/time.hpp"
#include "trace/price_trace.hpp"

namespace spothost::live {

/// One price change, as read from a feed: 24 bytes and trivially copyable.
/// Its market is the key it was pulled for (PriceFeed::next).
struct PriceUpdate {
  sim::SimTime time = 0;  ///< virtual (feed) timestamp, milliseconds
  double price = 0.0;
  /// Wall instant at which the pump that read this update began reading
  /// (set by tailing feeds, one per pump; epoch for replay feeds). The serve
  /// loop measures delivery latency as steady_clock::now() - read_at when
  /// the update reaches the policy layer.
  std::chrono::steady_clock::time_point read_at{};
};

class PriceFeed {
 public:
  enum class Status {
    kReady,       ///< `out` filled with the next update for that market
    kWouldBlock,  ///< nothing buffered now; pump() again later
    kEnd,         ///< this market's stream is complete
  };

  virtual ~PriceFeed() = default;

  /// Market keys this feed serves, in first-seen (deterministic) order.
  [[nodiscard]] virtual std::vector<std::string> markets() const = 0;

  /// Pulls the next update for `market`.
  virtual Status next(const std::string& market, PriceUpdate& out) = 0;

  /// Ingests whatever new data the source has (no-op for replay feeds).
  /// Returns the number of updates ingested.
  virtual std::size_t pump() { return 0; }
};

/// Replays pre-loaded PriceTraces as a feed. The traces must outlive the
/// feed. Deterministic: updates come out exactly as recorded.
class TraceReplayFeed final : public PriceFeed {
 public:
  void add_market(std::string key, const trace::PriceTrace* trace);

  [[nodiscard]] std::vector<std::string> markets() const override;
  Status next(const std::string& market, PriceUpdate& out) override;

 private:
  struct Stream {
    const trace::PriceTrace* trace = nullptr;
    std::size_t index = 0;
  };
  std::vector<std::string> order_;
  std::unordered_map<std::string, Stream> streams_;
};

/// Tails a growing CSV/JSONL price file.
class FileTailFeed final : public PriceFeed {
 public:
  /// Bytes per file read. A pump reads as many blocks as the file grew by
  /// and parses each in place, so a pump's memory does not grow with it.
  static constexpr std::size_t kReadBlockBytes = std::size_t{1} << 20;

  struct Options {
    /// Markets to accept. Empty = accept every market seen (keys are then
    /// discovered in file order).
    std::vector<std::string> markets;
    /// Keep at most this many parse errors (counters keep counting past it).
    std::size_t max_errors = 16;
  };

  /// A rejected line, with its 1-based line number in the file.
  struct FeedError {
    std::size_t line = 0;
    std::string message;
  };

  explicit FileTailFeed(std::string path) : FileTailFeed(std::move(path), Options{{}, 16}) {}
  FileTailFeed(std::string path, Options options);

  [[nodiscard]] std::vector<std::string> markets() const override;
  Status next(const std::string& market, PriceUpdate& out) override;

  /// Reads all complete lines appended since the last pump. Safe against a
  /// writer caught mid-line (the partial tail is buffered and completed on a
  /// later pump) and against truncation (re-reads from the start; rows at or
  /// before a market's last accepted timestamp are rejected as out-of-order).
  std::size_t pump() override;

  /// True once the `end,<time_ms>` sentinel has been read.
  [[nodiscard]] bool ended() const noexcept { return ended_; }
  [[nodiscard]] sim::SimTime end_time() const noexcept { return end_time_; }

  [[nodiscard]] std::size_t lines_ingested() const noexcept { return lines_ingested_; }
  [[nodiscard]] std::size_t rejected_lines() const noexcept { return rejected_lines_; }
  [[nodiscard]] std::size_t unknown_market_lines() const noexcept {
    return unknown_market_lines_;
  }
  [[nodiscard]] std::size_t truncations() const noexcept { return truncations_; }
  [[nodiscard]] const std::vector<FeedError>& errors() const noexcept { return errors_; }

 private:
  struct Stream {
    std::deque<PriceUpdate> buffered;
    sim::SimTime last_time = -1;  ///< last accepted timestamp (strictly increasing)
  };
  /// Lets streams_ be searched by string_view: a market's key is copied
  /// once, when the market is first seen.
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view key) const noexcept {
      return std::hash<std::string_view>{}(key);
    }
  };

  void handle_line(std::string_view line, std::chrono::steady_clock::time_point read_at);
  /// Counts a rejected row; keeps `what` + `line` while errors_ has room.
  void reject(std::string_view what, std::string_view line = {});
  Stream* stream_for(std::string_view market);

  std::string path_;
  Options options_;
  std::ifstream file_;
  std::streamoff pos_ = 0;     ///< byte offset of the next unread byte
  std::unique_ptr<char[]> block_;  ///< kReadBlockBytes, allocated by the first read
  std::string partial_;        ///< line straddling the last block or pump read
  std::size_t line_no_ = 0;    ///< 1-based number of the line being parsed
  /// First bytes ever read from offset 0 (up to 64). A rewrite that grows
  /// the file past the saved offset would otherwise go unnoticed and be
  /// parsed from mid-file; if these bytes change, the file was replaced and
  /// reading restarts from 0. A rotation that re-emits byte-identical
  /// history resumes seamlessly at the old offset instead.
  std::string prefix_sig_;

  std::vector<std::string> order_;
  std::unordered_map<std::string, Stream, KeyHash, std::equal_to<>> streams_;
  bool ended_ = false;
  sim::SimTime end_time_ = 0;

  std::size_t lines_ingested_ = 0;
  std::size_t rejected_lines_ = 0;
  std::size_t unknown_market_lines_ = 0;
  std::size_t truncations_ = 0;
  std::vector<FeedError> errors_;
};

}  // namespace spothost::live

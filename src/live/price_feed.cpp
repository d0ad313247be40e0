#include "live/price_feed.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <stdexcept>
#include <system_error>

namespace spothost::live {

// --- TraceReplayFeed ------------------------------------------------------

void TraceReplayFeed::add_market(std::string key, const trace::PriceTrace* trace) {
  if (trace == nullptr) {
    throw std::invalid_argument("TraceReplayFeed: null trace for " + key);
  }
  if (streams_.count(key) != 0) {
    throw std::invalid_argument("TraceReplayFeed: duplicate market " + key);
  }
  order_.push_back(key);
  streams_.emplace(std::move(key), Stream{trace, 0});
}

std::vector<std::string> TraceReplayFeed::markets() const { return order_; }

PriceFeed::Status TraceReplayFeed::next(const std::string& market, PriceUpdate& out) {
  const auto it = streams_.find(market);
  if (it == streams_.end()) {
    throw std::out_of_range("TraceReplayFeed: unknown market " + market);
  }
  Stream& s = it->second;
  const auto& points = s.trace->points();
  if (s.index >= points.size()) return Status::kEnd;
  const trace::PricePoint& p = points[s.index++];
  out = PriceUpdate{p.time, p.price, {}};  // replay: no wall provenance
  return Status::kReady;
}

// --- FileTailFeed ---------------------------------------------------------

namespace {

constexpr auto npos = std::string_view::npos;

/// 2^63, exactly representable: every double in [0, kTimeLimit) converts
/// to a SimTime.
constexpr double kTimeLimit = 9223372036854775808.0;

const char* skip_blanks(const char* p, const char* end) {
  while (p != end && (*p == ' ' || *p == '\t')) ++p;
  return p;
}

/// One std::from_chars number spanning all of `field`.
template <class T>
bool parse_field(std::string_view field, T& out) {
  const char* end = field.data() + field.size();
  const auto [p, ec] = std::from_chars(field.data(), end, out);
  return ec == std::errc{} && p == end;
}

/// ASCII digits spanning `field` that fit an int64 (from_chars alone would
/// also take a leading '-').
bool parse_time_ms(std::string_view field, sim::SimTime& out) {
  return !field.empty() && field.front() >= '0' && field.front() <= '9' &&
         parse_field(field, out);
}

// Minimal JSONL field extraction — enough for the one flat object shape the
// feed format defines; not a general JSON parser. `quoted_key` includes its
// quotes.

/// Start of the value after `quoted_key` and its colon, or npos.
std::size_t json_value(std::string_view line, std::string_view quoted_key) {
  const auto k = line.find(quoted_key);
  if (k == npos) return npos;
  const auto colon = line.find(':', k + quoted_key.size());
  return colon == npos ? npos : colon + 1;
}

bool json_number(std::string_view line, std::string_view quoted_key, double& out) {
  const auto i = json_value(line, quoted_key);
  if (i == npos) return false;
  const char* end = line.data() + line.size();
  const auto [p, ec] = std::from_chars(skip_blanks(line.data() + i, end), end, out);
  if (ec != std::errc{}) return false;
  const char* next = skip_blanks(p, end);
  return next != end && (*next == ',' || *next == '}');
}

bool json_string(std::string_view line, std::string_view quoted_key, std::string_view& out) {
  auto i = json_value(line, quoted_key);
  if (i == npos) return false;
  i = line.find('"', i);
  if (i == npos) return false;
  const auto close = line.find('"', i + 1);
  if (close == npos) return false;
  out = line.substr(i + 1, close - i - 1);
  return true;
}

}  // namespace

FileTailFeed::FileTailFeed(std::string path, Options options)
    : path_(std::move(path)), options_(std::move(options)) {
  // Pre-create allowlisted streams so markets() answers (in the allowlist's
  // order) before the first pump, and rows for anything else count as
  // unknown-market.
  for (const auto& m : options_.markets) {
    if (streams_.emplace(m, Stream{}).second) order_.push_back(m);
  }
}

std::vector<std::string> FileTailFeed::markets() const { return order_; }

FileTailFeed::Stream* FileTailFeed::stream_for(std::string_view market) {
  const auto it = streams_.find(market);
  if (it != streams_.end()) return &it->second;
  if (!options_.markets.empty()) return nullptr;  // allowlist rejects the rest
  order_.emplace_back(market);
  return &streams_.emplace(order_.back(), Stream{}).first->second;
}

void FileTailFeed::reject(std::string_view what, std::string_view line) {
  ++rejected_lines_;
  if (errors_.size() < options_.max_errors) {
    std::string message(what);
    message.append(line);
    errors_.push_back(FeedError{line_no_, std::move(message)});
  }
}

void FileTailFeed::handle_line(std::string_view line,
                               std::chrono::steady_clock::time_point read_at) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  if (line.empty() || line.front() == '#') return;

  sim::SimTime time = 0;
  std::string_view market;
  double price = 0.0;

  if (line.front() == '{') {
    double t_ms = 0.0;
    if (!json_number(line, "\"t\"", t_ms) || !json_string(line, "\"market\"", market) ||
        !json_number(line, "\"price\"", price)) {
      reject("malformed JSONL row: ", line);
      return;
    }
    if (!(t_ms >= 0.0 && t_ms < kTimeLimit)) {  // also false for NaN
      reject("bad timestamp: ", line);
      return;
    }
    time = static_cast<sim::SimTime>(t_ms);
  } else {
    const auto c1 = line.find(',');
    if (c1 == npos) {
      reject("malformed row (no comma): ", line);
      return;
    }
    const std::string_view first = line.substr(0, c1);
    if (first.starts_with("time")) return;  // header ("time", "time_ms", ...)
    if (first == "end") {
      sim::SimTime t = 0;
      if (!parse_time_ms(line.substr(c1 + 1), t)) {
        reject("malformed end sentinel: ", line);
        return;
      }
      ended_ = true;
      end_time_ = t;
      return;
    }
    const auto c2 = line.find(',', c1 + 1);
    if (c2 == npos) {
      reject("malformed row (two fields): ", line);
      return;
    }
    if (!parse_time_ms(first, time)) {
      reject("bad timestamp: ", line);
      return;
    }
    market = line.substr(c1 + 1, c2 - c1 - 1);
    if (!parse_field(line.substr(c2 + 1), price)) {
      reject("bad price: ", line);
      return;
    }
  }

  if (market.empty()) {
    reject("empty market id: ", line);
    return;
  }
  if (!std::isfinite(price) || price <= 0.0) {
    reject("price must be finite and > 0: ", line);
    return;
  }
  Stream* s = stream_for(market);
  if (s == nullptr) {
    ++unknown_market_lines_;
    return;
  }
  if (time <= s->last_time) {
    reject("out-of-order timestamp for " + std::string(market) + " at line " +
           std::to_string(line_no_) + " (" + std::to_string(time) + " <= " +
           std::to_string(s->last_time) + ")");
    return;
  }
  s->last_time = time;
  s->buffered.push_back(PriceUpdate{time, price, read_at});
  ++lines_ingested_;
}

std::size_t FileTailFeed::pump() {
  const std::size_t before = lines_ingested_;
  if (!file_.is_open()) {
    file_.open(path_, std::ios::binary);
    if (!file_.is_open()) return 0;  // not created yet; retry on a later pump
  }
  file_.clear();
  file_.seekg(0, std::ios::end);
  const std::streamoff size = file_.tellg();
  if (size < 0) return 0;
  constexpr std::streamoff kPrefixSigBytes = 64;
  bool rewritten = size < pos_;  // shrank: unambiguous truncation
  if (!rewritten && pos_ > 0 && !prefix_sig_.empty()) {
    // The file may have been truncated and re-grown past our offset between
    // pumps; the size check alone cannot see that. Compare the head bytes.
    std::array<char, kPrefixSigBytes> head{};
    file_.seekg(0);
    file_.read(head.data(), static_cast<std::streamsize>(prefix_sig_.size()));
    const auto got = static_cast<std::size_t>(file_.gcount());
    file_.clear();
    rewritten = std::string_view(head.data(), got) != prefix_sig_;
  }
  if (rewritten) {
    // Start over; per-market last_time survives, so re-read rows at or
    // before what we already delivered get rejected as out-of-order
    // instead of replayed.
    pos_ = 0;
    partial_.clear();
    line_no_ = 0;
    prefix_sig_.clear();
    ++truncations_;
  }
  if (size == pos_) return 0;

  const auto read_at = std::chrono::steady_clock::now();
  if (!block_) block_ = std::make_unique_for_overwrite<char[]>(kReadBlockBytes);
  file_.seekg(pos_);
  while (pos_ < size) {
    const auto want = std::min(size - pos_, static_cast<std::streamoff>(kReadBlockBytes));
    file_.read(block_.get(), static_cast<std::streamsize>(want));
    const auto got = static_cast<std::size_t>(file_.gcount());
    if (got == 0) break;  // shrank since the size check; the next pump sees it
    const std::string_view block(block_.get(), got);
    if (pos_ < kPrefixSigBytes) {
      prefix_sig_.append(block.substr(0, static_cast<std::size_t>(kPrefixSigBytes - pos_)));
    }
    pos_ += static_cast<std::streamoff>(got);

    // Only complete, newline-terminated lines are parsed; a trailing
    // fragment (the block ended, or a writer was caught mid-line) waits in
    // partial_ for the next block or pump.
    std::size_t start = 0;
    if (!partial_.empty()) {
      const auto nl = block.find('\n');
      if (nl == npos) {
        partial_.append(block);
        continue;
      }
      partial_.append(block.substr(0, nl));
      ++line_no_;
      handle_line(partial_, read_at);
      partial_.clear();
      start = nl + 1;
    }
    for (auto nl = block.find('\n', start); nl != npos; nl = block.find('\n', start)) {
      ++line_no_;
      handle_line(block.substr(start, nl - start), read_at);
      start = nl + 1;
    }
    partial_.assign(block.substr(start));
  }
  return lines_ingested_ - before;
}

PriceFeed::Status FileTailFeed::next(const std::string& market, PriceUpdate& out) {
  const auto it = streams_.find(market);
  if (it == streams_.end()) return ended_ ? Status::kEnd : Status::kWouldBlock;
  Stream& s = it->second;
  if (s.buffered.empty()) return ended_ ? Status::kEnd : Status::kWouldBlock;
  out = s.buffered.front();
  s.buffered.pop_front();
  return Status::kReady;
}

}  // namespace spothost::live

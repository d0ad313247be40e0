// spothost_serve — the serving front end: one codebase, two clocks.
//
// Runs the exact policy layer the simulator runs — provider, markets,
// scheduler, migration engine — against a price feed file, on the engine of
// your choice:
//
//   --mode sim     load the feed into price traces and run the discrete-event
//                  Simulation (the backtest; reference output)
//   --mode replay  feed the same file through live::FeedDriver into push-fed
//                  markets on a live::WallClock at --speed max: byte-identical
//                  decisions to --mode sim, produced by the live machinery
//   --mode tail    tail -f the feed file as it grows, pacing on the wall
//                  clock at --speed N; emits each migration decision with
//                  bounded latency after the price row lands in the file
//
//   spothost_serve --feed prices.csv [options]
//     --mode M          sim|replay|tail            (default replay)
//     --speed N|max     tail pacing: virtual ms per wall ms (default 1;
//                       replay always runs at max)
//     --out FILE        decision JSONL output, '-' = stdout (default -)
//     --policy P        proactive|reactive|pure-spot (default proactive)
//     --scope S         single|multi-market|multi-region (default multi-market)
//     --home R/S        home market key            (default: first in feed)
//     --seed N          master seed                (default 42)
//     --markets K1,K2   tail mode: only accept these market keys
//     --max-wall-s N    tail mode: stop after N wall seconds (default 3600)
//     --ticks           include per-tick price-change events in the output
//
// Feed rows: "time_ms,market,price" CSV or {"t":..,"market":"..","price":..}
// JSONL; '#' comments and a time,... header are skipped; "end,<time_ms>"
// marks the feed complete. Market keys are "<region>/<size>", e.g.
// "us-east-1a/small"; on-demand prices come from the instance-type catalog.
//
// replay and tail run a live::WallClock, which paces a Simulation it owns,
// so they dispatch through the same Simulation::run_until loop as --mode sim.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "spothost.hpp"

using namespace spothost;

namespace {

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      "usage: spothost_serve --feed FILE [--mode sim|replay|tail]\n"
      "                      [--speed N|max] [--out FILE] [--policy P]\n"
      "                      [--scope S] [--home REGION/SIZE] [--seed N]\n"
      "                      [--markets K1,K2,...] [--max-wall-s N] [--ticks]\n";
  std::exit(error.empty() ? 0 : 2);
}

constexpr int kMaxInt = std::numeric_limits<int>::max();

/// `text` as the value of integer flag `flag`, or a usage error naming it.
int int_flag(const std::string& flag, const std::string& text, int lo, int hi) {
  const auto n = exec::parse_int(text.c_str(), lo, hi);
  if (!n) {
    usage(flag + " must be an integer in [" + std::to_string(lo) + ", " +
          std::to_string(hi) + "], got '" + text + "'");
  }
  return static_cast<int>(*n);
}

std::uint64_t seed_flag(const std::string& flag, const std::string& text) {
  const auto n = exec::parse_u64(text.c_str());
  if (!n) usage(flag + " must be a non-negative integer, got '" + text + "'");
  return *n;
}

/// Forwards decision events to the JSONL sink, dropping the high-volume
/// per-tick price events unless asked for — both modes filter identically,
/// so sim and replay outputs stay diffable.
class DecisionSink final : public obs::TraceSink {
 public:
  DecisionSink(obs::TraceSink& inner, bool include_ticks)
      : inner_(inner), include_ticks_(include_ticks) {}

  void on_event(const obs::TraceEvent& event) override {
    if (!include_ticks_ && event.kind == obs::EventKind::kPriceChange) return;
    ++decisions_;
    inner_.on_event(event);
  }
  void flush() override { inner_.flush(); }

  [[nodiscard]] std::uint64_t decisions() const noexcept { return decisions_; }

 private:
  obs::TraceSink& inner_;
  bool include_ticks_;
  std::uint64_t decisions_ = 0;
};

cloud::MarketId parse_market_key(const std::string& key) {
  const auto slash = key.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= key.size()) {
    usage("market key must be <region>/<size>: " + key);
  }
  try {
    return cloud::MarketId{key.substr(0, slash),
                           cloud::size_from_string(key.substr(slash + 1))};
  } catch (const std::invalid_argument& e) {
    usage(std::string(e.what()) + ": " + key);
  }
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const auto comma = s.find(',', start);
    if (comma == std::string::npos) {
      if (start < s.size()) out.push_back(s.substr(start));
      break;
    }
    if (comma > start) out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

struct LoadedFeed {
  std::vector<std::string> keys;             // first-seen order
  std::vector<trace::PriceTrace> traces;     // parallel to keys
  sim::SimTime horizon = 0;
};

/// Parses the whole feed file into per-market traces (sim/replay modes) —
/// through the same FileTailFeed parser tail mode uses, so all three modes
/// agree on what a malformed row is.
LoadedFeed load_feed(const std::string& path) {
  live::FileTailFeed feed(path);
  if (feed.pump() == 0) usage("feed file is empty or unreadable: " + path);
  for (const auto& err : feed.errors()) {
    std::cerr << "feed: rejected line " << err.line << ": " << err.message
              << "\n";
  }
  LoadedFeed out;
  out.keys = feed.markets();
  for (const auto& key : out.keys) {
    trace::PriceTrace t;
    live::PriceUpdate u;
    while (feed.next(key, u) == live::PriceFeed::Status::kReady) {
      t.append(u.time, u.price);
      out.horizon = std::max(out.horizon, u.time);
    }
    out.traces.push_back(std::move(t));
  }
  if (feed.ended()) out.horizon = std::max(out.horizon, feed.end_time());
  for (auto& t : out.traces) t.set_end(out.horizon);
  return out;
}

live::SessionSpec build_spec(const std::vector<std::string>& keys,
                             const trace::PriceTrace* traces,
                             const sched::SchedulerConfig& config,
                             std::uint64_t seed) {
  live::SessionSpec spec;
  spec.seed = seed;
  spec.config = config;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const cloud::MarketId id = parse_market_key(keys[i]);
    const double od = cloud::on_demand_price(id.size, id.region);
    spec.markets.push_back(live::SessionMarket{
        id, od, traces != nullptr ? &traces[i] : nullptr});
  }
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  std::string feed_path;
  std::string mode = "replay";
  std::string speed_arg = "1";
  std::string out_path = "-";
  std::string policy = "proactive";
  std::string scope = "multi-market";
  std::string home_key;
  std::uint64_t seed = 42;
  std::vector<std::string> allowlist;
  int max_wall_s = 3600;
  bool include_ticks = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--feed") feed_path = next();
    else if (arg == "--mode") mode = next();
    else if (arg == "--speed") speed_arg = next();
    else if (arg == "--out") out_path = next();
    else if (arg == "--policy") policy = next();
    else if (arg == "--scope") scope = next();
    else if (arg == "--home") home_key = next();
    else if (arg == "--seed") seed = seed_flag(arg, next());
    else if (arg == "--markets") allowlist = split_csv(next());
    else if (arg == "--max-wall-s") max_wall_s = int_flag(arg, next(), 1, kMaxInt);
    else if (arg == "--ticks") include_ticks = true;
    else if (arg == "--help" || arg == "-h") usage();
    else usage("unknown option: " + arg);
  }
  if (feed_path.empty()) usage("--feed is required");
  if (mode != "sim" && mode != "replay" && mode != "tail") {
    usage("unknown mode: " + mode);
  }
  double speed = 1.0;
  if (speed_arg == "max") speed = live::WallClock::kMaxSpeed;
  else {
    speed = std::atof(speed_arg.c_str());
    if (!(speed > 0)) usage("--speed must be > 0 or 'max'");
  }

  // --- output + tracer ---------------------------------------------------
  std::unique_ptr<obs::JsonlSink> jsonl;
  if (out_path == "-") jsonl = std::make_unique<obs::JsonlSink>(std::cout);
  else jsonl = std::make_unique<obs::JsonlSink>(out_path);
  DecisionSink decisions(*jsonl, include_ticks);
  obs::Tracer tracer;
  tracer.add_sink(&decisions);

  auto make_config = [&](const std::string& first_key) {
    const cloud::MarketId home =
        parse_market_key(home_key.empty() ? first_key : home_key);
    sched::SchedulerConfig config;
    if (policy == "proactive") config = sched::proactive_config(home);
    else if (policy == "reactive") config = sched::reactive_config(home);
    else if (policy == "pure-spot") config = sched::pure_spot_config(home);
    else usage("unknown policy: " + policy);
    if (scope == "single") config.scope = sched::MarketScope::kSingleMarket;
    else if (scope == "multi-market") config.scope = sched::MarketScope::kMultiMarket;
    else if (scope == "multi-region") config.scope = sched::MarketScope::kMultiRegion;
    else usage("unknown scope: " + scope);
    return config;
  };

  std::uint64_t delivered = 0;
  double total_cost = 0.0;
  sim::SimTime served_until = 0;

  if (mode == "sim") {
    const LoadedFeed loaded = load_feed(feed_path);
    const auto config = make_config(loaded.keys.front());
    auto engine = sim::make_simulation_engine();
    live::HostingSession session(
        *engine, build_spec(loaded.keys, loaded.traces.data(), config, seed));
    session.attach_tracer(&tracer);
    session.start();
    engine->run_until(loaded.horizon);
    session.finalize(loaded.horizon);
    tracer.flush();
    total_cost = session.provider().ledger().total_cost();
    served_until = loaded.horizon;
  } else if (mode == "replay") {
    const LoadedFeed loaded = load_feed(feed_path);
    const auto config = make_config(loaded.keys.front());
    live::WallClock clock(live::WallClock::Options{live::WallClock::kMaxSpeed, 0});
    live::HostingSession session(
        clock, build_spec(loaded.keys, nullptr, config, seed));
    session.attach_tracer(&tracer);
    live::TraceReplayFeed feed;
    for (std::size_t i = 0; i < loaded.keys.size(); ++i) {
      feed.add_market(loaded.keys[i], &loaded.traces[i]);
    }
    live::FeedDriver driver(clock, session.provider(), feed);
    driver.start();
    session.start();
    clock.run_until(loaded.horizon);
    session.finalize(loaded.horizon);
    tracer.flush();
    delivered = driver.delivered();
    total_cost = session.provider().ledger().total_cost();
    served_until = loaded.horizon;
  } else {  // tail
    live::FileTailFeed::Options feed_options;
    feed_options.markets = allowlist;
    live::FileTailFeed feed(feed_path, feed_options);
    const auto wall_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds{max_wall_s};

    // Discover markets: a market exists once its first row lands, and every
    // discovered market has a price to prime with. A short settle pass
    // catches sibling markets written in the same burst.
    feed.pump();
    while (feed.markets().empty()) {
      if (std::chrono::steady_clock::now() >= wall_deadline) {
        std::cerr << "serve: no feed data within --max-wall-s\n";
        return 1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds{20});
      feed.pump();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds{100});
    feed.pump();

    const auto config = make_config(feed.markets().front());
    live::WallClock clock(live::WallClock::Options{speed, 0});
    live::HostingSession session(
        clock, build_spec(feed.markets(), nullptr, config, seed));
    session.attach_tracer(&tracer);
    live::FeedDriver driver(clock, session.provider(), feed);
    std::chrono::nanoseconds max_latency{0};
    driver.set_delivery_hook([&max_latency](const live::PriceUpdate& u) {
      max_latency = std::max(max_latency,
                             std::chrono::steady_clock::now() - u.read_at);
    });
    driver.start();
    session.start();

    const auto poll_interval = std::chrono::milliseconds{10};
    while (!driver.done() &&
           std::chrono::steady_clock::now() < wall_deadline) {
      driver.pump();
      clock.poll();
      auto sleep_for = std::chrono::nanoseconds{poll_interval};
      if (const auto until_next = clock.wall_until_next();
          until_next.has_value() && *until_next < sleep_for) {
        sleep_for = std::max(*until_next,
                             std::chrono::nanoseconds{std::chrono::milliseconds{1}});
      }
      std::this_thread::sleep_for(sleep_for);
    }
    driver.pump();
    clock.poll();
    session.finalize(clock.now());
    tracer.flush();
    delivered = driver.delivered();
    total_cost = session.provider().ledger().total_cost();
    served_until = clock.now();
    std::cerr << "serve: max_delivery_latency_ms="
              << std::chrono::duration_cast<std::chrono::milliseconds>(
                     max_latency)
                     .count()
              << "\n";
  }

  std::cerr << "serve: mode=" << mode << " served_ms=" << served_until
            << " updates=" << delivered
            << " decisions=" << decisions.decisions()
            << " cost=$" << total_cost << "\n";
  return 0;
}

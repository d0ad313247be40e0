// serve_tail: one proactive multi-region service over the 16 canonical
// markets catches up a recorded multi-year price feed through FileTailFeed ->
// FeedDriver -> HostingSession on a WallClock at max speed, the path of
// `spothost_serve --mode tail --speed max`.
//
// The feed is generated from the seed into an in-memory file (memfd), so the
// run reads no disk. The decision stream must equal the one `--mode sim`
// produces from the same file; that holds for any seed.
#include <malloc.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "probes.hpp"
#include "report.hpp"
#include "spothost.hpp"

namespace perfbench {
namespace {

using namespace spothost;

/// The recorded feed, as an in-memory file this process can open by path.
class Feed {
 public:
  Feed(std::uint64_t seed, int days, bool keep_times);
  Feed(const Feed&) = delete;
  Feed& operator=(const Feed&) = delete;
  ~Feed() { ::close(fd_); }

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::uint64_t rows() const noexcept { return rows_; }
  [[nodiscard]] sim::SimTime horizon() const noexcept { return horizon_; }
  /// Price-change times in (0, horizon] (kept only when asked for).
  [[nodiscard]] const std::vector<sim::SimTime>& times() const noexcept { return times_; }
  [[nodiscard]] double generate_s() const noexcept { return generate_s_; }

 private:
  void write_all(const std::string& bytes);

  int fd_ = -1;
  std::string path_;
  std::uint64_t rows_ = 0;
  sim::SimTime horizon_ = 0;
  std::vector<sim::SimTime> times_;
  double generate_s_ = 0.0;
};

Feed::Feed(std::uint64_t seed, int days, bool keep_times) {
  fd_ = ::memfd_create("perfbench-feed", 0);
  if (fd_ < 0) throw std::runtime_error("memfd_create failed");
  path_ = "/proc/self/fd/" + std::to_string(fd_);

  sched::Scenario scenario;  // the 16 canonical markets
  scenario.seed = seed;
  scenario.horizon = static_cast<sim::SimTime>(days) * sim::kDay;
  horizon_ = scenario.horizon;
  const auto t0 = Clock::now();
  const auto set = sched::MarketTraceSet::generate(scenario);
  generate_s_ = seconds_between(t0, Clock::now());

  // Rows in time order, markets in registration order within a millisecond,
  // prices in shortest round-trip form so the file holds the traces exactly.
  const auto& markets = set->markets();
  std::vector<std::string> keys;
  std::vector<std::size_t> next(markets.size(), 0);
  for (const auto& m : markets) keys.push_back(m.id.str());
  std::string buf = "time_ms,market,price\n";
  for (;;) {
    std::size_t pick = markets.size();
    for (std::size_t i = 0; i < markets.size(); ++i) {
      const auto& pts = markets[i].prices.points();
      if (next[i] < pts.size() &&
          (pick == markets.size() ||
           pts[next[i]].time < markets[pick].prices.points()[next[pick]].time)) {
        pick = i;
      }
    }
    if (pick == markets.size()) break;
    const auto& p = markets[pick].prices.points()[next[pick]++];
    char num[64];
    const auto r = std::to_chars(num, num + sizeof num, p.price);
    buf += std::to_string(p.time);
    buf += ',';
    buf += keys[pick];
    buf += ',';
    buf.append(num, r.ptr);
    buf += '\n';
    ++rows_;
    if (keep_times && p.time > 0) times_.push_back(p.time);
    if (buf.size() > (1u << 20)) {
      write_all(buf);
      buf.clear();
    }
  }
  buf += "end," + std::to_string(horizon_) + "\n";
  write_all(buf);
  times_.erase(std::unique(times_.begin(), times_.end()), times_.end());
}

void Feed::write_all(const std::string& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const auto n = ::write(fd_, bytes.data() + done, bytes.size() - done);
    if (n <= 0) throw std::runtime_error("writing the feed failed");
    done += static_cast<std::size_t>(n);
  }
}

/// The serve binary's decision output: every trace event but the per-tick
/// price changes, as JSONL.
class DecisionSink final : public obs::TraceSink {
 public:
  explicit DecisionSink(std::ostream& out) : jsonl_(out) {}
  void on_event(const obs::TraceEvent& event) override {
    if (event.kind != obs::EventKind::kPriceChange) jsonl_.on_event(event);
  }
  void flush() override { jsonl_.flush(); }

 private:
  obs::JsonlSink jsonl_;
};

sched::SchedulerConfig serve_config() {
  auto config = sched::proactive_config(cloud::MarketId{"us-east-1a", cloud::InstanceSize::kSmall});
  config.scope = sched::MarketScope::kMultiRegion;
  return config;
}

/// spothost_serve's session spec: one market per feed key, on-demand price
/// from the catalog, push-fed unless `traces` is given.
live::SessionSpec session_spec(const std::vector<std::string>& keys,
                               const std::vector<trace::PriceTrace>* traces,
                               std::uint64_t seed) {
  live::SessionSpec spec;
  spec.seed = seed;
  spec.config = serve_config();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto slash = keys[i].find('/');
    const cloud::MarketId id{keys[i].substr(0, slash),
                             cloud::size_from_string(keys[i].substr(slash + 1))};
    spec.markets.push_back(live::SessionMarket{
        id, cloud::on_demand_price(id.size, id.region),
        traces != nullptr ? &(*traces)[i] : nullptr});
  }
  return spec;
}

struct Caught {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::string decisions;
  std::uint64_t rows = 0;
  std::uint64_t rejected = 0;
};

live::WallClock::Options max_speed() {
  live::WallClock::Options options;
  options.speed = live::WallClock::kMaxSpeed;
  return options;
}

/// One catch-up of the whole feed, untraced (the decision stream is the
/// program's output, so its sink is attached as in spothost_serve).
Caught untraced_catch_up(const Feed& feed, std::uint64_t seed) {
  Caught c;
  std::ostringstream decisions;
  DecisionSink sink(decisions);
  obs::Tracer tracer;
  tracer.add_sink(&sink);

  const auto t0 = Clock::now();
  live::FileTailFeed tail(feed.path());
  tail.pump();
  live::WallClock clock(max_speed());
  live::HostingSession session(clock, session_spec(tail.markets(), nullptr, seed));
  session.attach_tracer(&tracer);
  live::FeedDriver driver(clock, session.provider(), tail);
  driver.start();
  session.start();
  const auto t1 = Clock::now();
  clock.run_until(tail.end_time());
  session.finalize(tail.end_time());
  tracer.flush();
  const auto t2 = Clock::now();

  c.setup_s = seconds_between(t0, t1);
  c.run_s = seconds_between(t1, t2);
  c.decisions = decisions.str();
  c.rows = tail.lines_ingested();
  c.rejected = tail.rejected_lines();
  return c;
}

/// The same catch-up with spans, price-step probes and an obs::CounterSink.
Caught traced_catch_up(const Feed& feed, std::uint64_t seed, SpanRecorder& spans,
                       Layers& l) {
  Caught c;
  std::ostringstream decisions;
  DecisionSink sink(decisions);
  obs::CounterSink counts;
  obs::Tracer tracer;
  tracer.add_sink(&sink);
  tracer.add_sink(&counts);
  StepProbes probes(spans);  // outlives the markets it is subscribed to

  Scoped root(spans, "catch_up");
  std::optional<live::FileTailFeed> tail;
  std::optional<live::WallClock> clock;
  std::optional<live::HostingSession> session;
  std::optional<live::FeedDriver> driver;
  {
    Scoped setup(spans, "setup");
    {
      Scoped s(spans, "live.parse");
      tail.emplace(feed.path());
      tail->pump();
    }
    {
      Scoped s(spans, "sched.world_build");
      clock.emplace(max_speed());
      session.emplace(*clock, session_spec(tail->markets(), nullptr, seed));
    }
    const auto config = serve_config();
    std::map<std::string, int> listeners;
    auto watched = sched::candidate_markets(session->provider(), config.scope,
                                            config.home_market, config.allowed_regions);
    if (std::find(watched.begin(), watched.end(), config.home_market) == watched.end()) {
      watched.push_back(config.home_market);
    }
    for (const auto& m : watched) listeners[m.str()] = 1;
    probes.subscribe_before(session->provider(), listeners);
    session->attach_tracer(&tracer);
    {
      Scoped s(spans, "live.feed_start");
      driver.emplace(*clock, session->provider(), *tail);
      driver->start();
    }
    {
      Scoped s(spans, "sched.fleet_build");
      session->start();
    }
    probes.subscribe_after(session->provider());
  }
  std::size_t pending_peak = 0;
  {
    Scoped run(spans, "run");
    {
      Scoped drive(spans, "live.drive");
      pending_peak = run_sliced(*clock, feed.times(), tail->end_time(), spans, probes);
    }
    {
      Scoped s(spans, "sched.finalize");
      session->finalize(tail->end_time());
      tracer.flush();
    }
  }
  c.setup_s = spans.total_s("setup");
  c.run_s = spans.total_s("run");
  c.decisions = decisions.str();
  c.rows = tail->lines_ingested();
  c.rejected = tail->rejected_lines();

  l.trace_generate_s = feed.generate_s();
  l.trace_sets = 1;
  l.sched_world_build_s = spans.total_s("sched.world_build");
  l.sched_fleet_build_s = spans.total_s("sched.fleet_build");
  l.sched_fanout_s = spans.total_s("sched.fanout");
  l.sched_deliveries = static_cast<double>(probes.deliveries());
  add_event_counts(counts, l);
  l.sched_finalize_s = spans.total_s("sched.finalize");
  l.cloud_price_steps = static_cast<double>(probes.steps());
  l.cloud_price_step_s = spans.total_s("cloud.price_step");
  l.cloud_ledger_records = static_cast<double>(session->provider().ledger().records().size());
  l.simcore_events = static_cast<double>(clock->dispatched());
  l.simcore_loop_s = spans.total_s("live.drive");
  l.simcore_pending_peak = static_cast<double>(pending_peak);
  l.simcore_between_steps_s = spans.total_s("simcore.between_steps");
  l.live_parse_s = spans.total_s("live.parse");
  l.live_rows = static_cast<double>(c.rows);
  l.live_rows_rejected = static_cast<double>(c.rejected);
  l.live_drive_s = spans.total_s("live.drive");
  l.live_updates = static_cast<double>(driver->delivered());
  l.traced_run_s = c.run_s;
  return c;
}

/// `spothost_serve --mode sim` over the same file: load it into traces
/// through the same parser, then run the discrete-event Simulation.
std::string sim_decisions(const Feed& feed, std::uint64_t seed) {
  live::FileTailFeed tail(feed.path());
  tail.pump();
  const auto keys = tail.markets();
  std::vector<trace::PriceTrace> traces;
  sim::SimTime horizon = 0;
  for (const auto& key : keys) {
    trace::PriceTrace t;
    live::PriceUpdate u;
    while (tail.next(key, u) == live::PriceFeed::Status::kReady) {
      t.append(u.time, u.price);
      horizon = std::max(horizon, u.time);
    }
    traces.push_back(std::move(t));
  }
  if (tail.ended()) horizon = std::max(horizon, tail.end_time());
  for (auto& t : traces) t.set_end(horizon);

  std::ostringstream decisions;
  DecisionSink sink(decisions);
  obs::Tracer tracer;
  tracer.add_sink(&sink);
  auto engine = sim::make_simulation_engine();
  live::HostingSession session(*engine, session_spec(keys, &traces, seed));
  session.attach_tracer(&tracer);
  session.start();
  engine->run_until(horizon);
  session.finalize(horizon);
  tracer.flush();
  return decisions.str();
}

}  // namespace

Result run_serve(const Options& options) {
  const int days = options.tiny ? 60 : 4 * 365;
  const Feed feed(options.seed, days, options.trace);
  malloc_trim(0);  // hand the generator's memory back before forking
  Result result;
  std::vector<double> setups;
  std::vector<double> runs;
  std::vector<double> peaks;
  std::string decisions;
  auto check = [&](const Caught& c, const char* pass) {
    result.attempted += c.rows;
    result.failed += c.rejected;
    if (c.rows != feed.rows() || c.rejected != 0) {
      result.fail(std::string(pass) + " catch-up ingested " + std::to_string(c.rows) +
                  " rows (" + std::to_string(c.rejected) + " rejected) of " +
                  std::to_string(feed.rows()));
    }
    if (decisions.empty()) {
      decisions = c.decisions;
    } else if (c.decisions != decisions) {
      result.failed += c.rows;
      result.fail(std::string(pass) + " catch-up decision stream diverged");
    }
  };
  auto untraced = [&] {
    const Caught c = untraced_catch_up(feed, options.seed);
    setups.push_back(c.setup_s);
    runs.push_back(c.run_s);
    check(c, "untraced");
  };

  if (!options.trace) {
    repeat_within(options.seconds, 3, [&] {
      // The child reports "<rows> <rejected>\n<decision JSONL>".
      const Rep r = in_child([&] {
        const Caught c = untraced_catch_up(feed, options.seed);
        return Rep{c.setup_s, c.run_s, peak_rss_mb(),
                   std::to_string(c.rows) + " " + std::to_string(c.rejected) + "\n" +
                       c.decisions};
      });
      Caught c;
      c.setup_s = r.setup_s;
      c.run_s = r.run_s;
      std::istringstream head(r.outputs);
      head >> c.rows >> c.rejected;
      c.decisions = r.outputs.substr(r.outputs.find('\n') + 1);
      setups.push_back(c.setup_s);
      runs.push_back(c.run_s);
      peaks.push_back(r.peak_rss_mb);
      check(c, "untraced");
    });
    log_samples("setup_s", setups);
    log_samples("run_s", runs);
    log_samples("peak_rss_mb", peaks);
    result.add("setup_s", median(setups), "s");
    result.add("run_s", median(runs), "s");
    result.add("peak_rss_mb", median(peaks), "MiB");
  } else {
    SpanRecorder spans;
    Layers layers;
    std::vector<double> traced_runs;
    bool first = true;
    repeat_within(options.seconds, 1, [&] {
      untraced();
      SpanRecorder later_spans;  // passes after the first are timed only
      Layers later_layers;
      const Caught c = traced_catch_up(feed, options.seed, first ? spans : later_spans,
                                       first ? layers : later_layers);
      first = false;
      traced_runs.push_back(c.run_s);
      check(c, "traced");
    });
    layers.obs_trace_overhead_pct = overhead_pct(traced_runs, runs);
    add_layer_metrics(result, layers);
    spans.report(stderr);
    if (!options.spans_path.empty()) spans.write(options.spans_path);
  }

  // The --mode sim contract, after the measured passes.
  if (sim_decisions(feed, options.seed) != decisions) {
    result.failed += result.attempted;
    result.fail("tail catch-up decisions differ from --mode sim");
  }
  std::uint64_t lines = 0;
  for (const char ch : decisions) lines += ch == '\n' ? 1 : 0;
  std::ostringstream o;
  o << "{\"rows\": " << feed.rows() << ", \"decisions\": " << lines
    << ", \"decision_bytes\": " << decisions.size() << ", \"decision_fnv1a\": \"";
  std::uint64_t h = 1469598103934665603ull;
  for (const char ch : decisions) {
    h = (h ^ static_cast<unsigned char>(ch)) * 1099511628211ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  o << hex << "\"}";
  result.outputs = o.str();
  return result;
}

}  // namespace perfbench

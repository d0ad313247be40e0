// Engine performance microbenchmarks (google-benchmark): event-queue
// throughput, the hold model over both queues a Simulation runs on,
// synthetic trace generation and memoization, complete hosting
// runs, a price-replay month, a storm fleet-month with and without a trace
// sink, and the serve feed reader.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <vector>

#include "simcore/binary_heap_queue.hpp"
#include "simcore/timing_wheel.hpp"
#include "spothost.hpp"

namespace {

using namespace spothost;

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::TimingWheelQueue q;
    std::uint64_t rng_state = 42;
    for (std::size_t i = 0; i < n; ++i) {
      q.schedule(static_cast<sim::SimTime>(sim::splitmix64(rng_state) % 1000000),
                 [] {});
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop().time);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_EventQueueCancellation(benchmark::State& state) {
  const std::size_t n = 10000;
  for (auto _ : state) {
    sim::TimingWheelQueue q;
    std::vector<sim::EventId> ids;
    ids.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      ids.push_back(q.schedule(static_cast<sim::SimTime>(i), [] {}));
    }
    for (std::size_t i = 0; i < n; i += 2) q.cancel(ids[i]);
    while (!q.empty()) benchmark::DoNotOptimize(q.pop().time);
  }
}
BENCHMARK(BM_EventQueueCancellation);

// The hold model over both queues a Simulation runs on: the heap it starts
// with and the wheel it moves to past Simulation::kHeapMaxPending. Each
// iteration pops the earliest event and reschedules it one delay later, so
// the queue stays at `pending` live events; the time per item is one
// event's queue work. Delays are drawn before timing starts: `hourly:0` is
// price-step-like (exponential, mean 5 min), `hourly:1` hour-tick-like
// (exactly one hour, first phases uniform over the first hour).
template <class Queue>
void BM_QueueHold(benchmark::State& state) {
  const auto pending = static_cast<std::size_t>(state.range(0));
  const bool hourly = state.range(1) != 0;
  constexpr std::size_t kDelays = 4096;  // a power of two, cycled through
  sim::RngStream rng(7);
  std::vector<sim::SimTime> delays(kDelays, sim::kHour);
  if (!hourly) {
    for (auto& d : delays) {
      d = 1 + static_cast<sim::SimTime>(rng.exponential(5.0 * sim::kMinute));
    }
  }
  Queue q;
  for (std::size_t i = 0; i < pending; ++i) {
    q.schedule(hourly ? rng.uniform_int(0, sim::kHour - 1) : delays[i % kDelays],
               [] {});
  }
  sim::EventQueue::Fired fired;
  std::size_t next = 0;
  for (auto _ : state) {
    q.pop_due(std::numeric_limits<sim::SimTime>::max(), fired);
    benchmark::DoNotOptimize(fired.time);
    q.schedule(fired.time + delays[next], [] {});
    next = (next + 1) & (kDelays - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_QueueHold, sim::BinaryHeapQueue)
    ->ArgNames({"pending", "hourly"})
    ->ArgsProduct({benchmark::CreateRange(4, 16384, 2), {0, 1}});
BENCHMARK_TEMPLATE(BM_QueueHold, sim::TimingWheelQueue)
    ->ArgNames({"pending", "hourly"})
    ->ArgsProduct({benchmark::CreateRange(4, 16384, 2), {0, 1}});

void BM_SyntheticTraceMonth(benchmark::State& state) {
  sim::RngFactory factory(7);
  const auto profile = trace::profile_for("us-east-1a", "small");
  std::uint64_t i = 0;
  for (auto _ : state) {
    auto rng = factory.stream("bench", i++);
    const auto t = trace::SyntheticSpotModel::generate(profile, 0.06,
                                                       30 * sim::kDay, rng);
    benchmark::DoNotOptimize(t.size());
  }
}
BENCHMARK(BM_SyntheticTraceMonth);

// Monotone forward scan over a month of prices, the access pattern of the
// billing meter and the scheduler's periodic re-evaluation. The baseline
// re-runs a binary search per query (what the cursorless price_at overload
// does); the PriceCursor variant answers the same queries amortized O(1).
trace::PriceTrace month_trace() {
  sim::RngFactory factory(7);
  auto rng = factory.stream("bench-trace");
  return trace::SyntheticSpotModel::generate(trace::profile_for("us-east-1a", "small"),
                                             0.06, 30 * sim::kDay, rng);
}

void BM_PriceTraceForwardScanBinarySearch(benchmark::State& state) {
  const auto t = month_trace();
  const auto& pts = t.points();
  const sim::SimTime step = 5 * sim::kMinute;
  for (auto _ : state) {
    double sum = 0.0;
    for (sim::SimTime q = t.start(); q < t.end(); q += step) {
      auto it = std::upper_bound(
          pts.begin(), pts.end(), q,
          [](sim::SimTime v, const trace::PricePoint& p) { return v < p.time; });
      sum += std::prev(it)->price;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>((t.end() - t.start()) / step) * state.iterations());
}
BENCHMARK(BM_PriceTraceForwardScanBinarySearch);

void BM_PriceTraceForwardScanCursor(benchmark::State& state) {
  const auto t = month_trace();
  const sim::SimTime step = 5 * sim::kMinute;
  for (auto _ : state) {
    double sum = 0.0;
    trace::PriceCursor cursor;  // the reader's state, not the trace's
    for (sim::SimTime q = t.start(); q < t.end(); q += step) {
      sum += t.price_at(q, cursor);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>((t.end() - t.start()) / step) * state.iterations());
}
BENCHMARK(BM_PriceTraceForwardScanCursor);

void BM_WorldConstruction(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    sched::World world(sched::Scenario{.seed = seed++, .horizon = 30 * sim::kDay});
    benchmark::DoNotOptimize(world.provider().all_markets().size());
  }
}
BENCHMARK(BM_WorldConstruction);

void BM_FullHostingMonth(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    sched::Scenario s;
    s.seed = seed++;
    s.horizon = 30 * sim::kDay;
    s.regions = {"us-east-1a"};
    s.sizes = {cloud::InstanceSize::kSmall};
    const auto m = metrics::run_hosting_scenario(
        s, sched::proactive_config({"us-east-1a", cloud::InstanceSize::kSmall}));
    benchmark::DoNotOptimize(m.total_cost);
  }
}
BENCHMARK(BM_FullHostingMonth);

// The price-step path alone: a World over the 16 canonical markets with no
// scheduler replays one 30-day month, so every dispatched event is a price
// step — a queue hop, SpotMarket::dispatch and the provider's revocation
// scan, the chain that carries 99 % of the paper sweep's events. "items/s"
// is events dispatched per second of run_until. Traces are generated once
// (TraceCache); World construction and teardown are not timed.
void BM_PriceReplayMonth(benchmark::State& state) {
  sched::Scenario scenario;
  scenario.seed = metrics::run_seed(20150615, 0);
  scenario.horizon = 30 * sim::kDay;
  sched::TraceCache cache;
  const auto traces = cache.get(scenario);
  std::int64_t events = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto world = std::make_unique<sched::World>(scenario, traces);
    state.ResumeTiming();
    world->engine().run_until(world->horizon());
    state.PauseTiming();
    events += static_cast<std::int64_t>(world->engine().dispatched());
    world.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_PriceReplayMonth)->Unit(benchmark::kMillisecond);

// What tracing costs, and what it costs when off: one 1,000-service storm
// fleet-month (perfbench fleet_storm's us-east markets and homes, every
// fault kind at rate 0.05) untraced (arg 0) and with an obs::CounterSink
// attached (arg 1). Both arms replay the same events; "items/s" is events
// dispatched per second of run_until + finalize. Set-up and teardown are
// not timed. Untraced, a scheduler event is a counter increment and a
// tracer test; traced, every event is built, market string included.
void BM_StormFleetMonth(benchmark::State& state) {
  const bool traced = state.range(0) != 0;
  sched::Scenario scenario;
  scenario.seed = metrics::run_seed(20150615, 0);
  scenario.horizon = 30 * sim::kDay;
  scenario.regions = {"us-east-1a", "us-east-1b"};
  for (const auto kind : faults::kAllFaultKinds) {
    scenario.fault_plan.with_rate(kind, 0.05);
  }
  sched::FleetConfig cfg;
  cfg.num_services = 1000;
  cfg.home_markets = {{"us-east-1a", cloud::InstanceSize::kSmall},
                      {"us-east-1b", cloud::InstanceSize::kSmall},
                      {"us-east-1a", cloud::InstanceSize::kLarge},
                      {"us-east-1b", cloud::InstanceSize::kXLarge}};
  cfg.service_template = sched::proactive_config(cfg.home_markets.front());
  obs::Tracer tracer;
  obs::CounterSink counts;
  tracer.add_sink(&counts);

  std::int64_t events = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto world = std::make_unique<sched::World>(scenario);
    if (traced) world->engine().set_tracer(&tracer);
    auto fleet = std::make_unique<sched::FleetScheduler>(
        world->clock(), world->provider(), cfg, world->rng());
    fleet->start();
    state.ResumeTiming();
    world->engine().run_until(world->horizon());
    world->provider().finalize(world->horizon());
    fleet->finalize(world->horizon());
    state.PauseTiming();
    events += static_cast<std::int64_t>(world->engine().dispatched());
    fleet.reset();
    world.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(events);
  state.SetLabel(traced ? "CounterSink" : "untraced");
}
BENCHMARK(BM_StormFleetMonth)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Fig-08-shaped arm fan-out: five scheduler arms over the SAME (scenario,
// seed). The per-arm baseline regenerates the market traces inside every
// World; the memoized variant generates once per seed via TraceCache and
// shares the set. The "generations" counter makes the >=5x reduction visible
// in the JSON output.
void BM_Fig08ArmsPerArmTraces(benchmark::State& state) {
  sched::Scenario s;
  s.horizon = 30 * sim::kDay;
  s.regions = {"us-east-1a"};
  std::uint64_t generations = 0;
  for (auto _ : state) {
    s.seed += 1;
    for (int arm = 0; arm < 5; ++arm) {
      sched::World world(s);  // regenerates the trace set
      ++generations;
      benchmark::DoNotOptimize(world.provider().all_markets().size());
    }
  }
  state.counters["generations"] =
      benchmark::Counter(static_cast<double>(generations));
}
BENCHMARK(BM_Fig08ArmsPerArmTraces);

void BM_Fig08ArmsMemoizedTraces(benchmark::State& state) {
  sched::Scenario s;
  s.horizon = 30 * sim::kDay;
  s.regions = {"us-east-1a"};
  sched::TraceCache cache;
  for (auto _ : state) {
    s.seed += 1;
    for (int arm = 0; arm < 5; ++arm) {
      sched::World world(s, cache.get(s));
      benchmark::DoNotOptimize(world.provider().all_markets().size());
    }
  }
  state.counters["generations"] =
      benchmark::Counter(static_cast<double>(cache.generations()));
}
BENCHMARK(BM_Fig08ArmsMemoizedTraces);

// End-to-end sweep throughput: 4 arms x 3 seeds of a one-region hosting
// month, fanned across the shared pool with memoized traces.
void BM_SweepThroughput(benchmark::State& state) {
  sched::Scenario s;
  s.horizon = 30 * sim::kDay;
  s.regions = {"us-east-1a"};
  s.sizes = {cloud::InstanceSize::kSmall};
  const cloud::MarketId home{"us-east-1a", cloud::InstanceSize::kSmall};
  std::uint64_t base_seed = 9001;
  for (auto _ : state) {
    metrics::SweepRunner sweep(3, base_seed++);
    sweep.add_arm("reactive", s, sched::reactive_config(home));
    sweep.add_arm("proactive", s, sched::proactive_config(home));
    auto pessimistic = sched::proactive_config(home);
    pessimistic.bid.proactive_multiple = 1.5;
    sweep.add_arm("pessimistic", s, pessimistic);
    sweep.add_arm("pure-spot", s, sched::pure_spot_config(home));
    const auto results = sweep.run_all();
    benchmark::DoNotOptimize(results.size());
    state.counters["generations"] = benchmark::Counter(
        static_cast<double>(sweep.trace_cache()->generations()));
  }
  state.SetItemsProcessed(12 * state.iterations());
}
BENCHMARK(BM_SweepThroughput);

// The paper sweep's trace set-up: its ten scenario shapes (each canonical
// region alone, as Figs. 6-8 and 11 use them, and Fig. 9's six region
// pairs) x 4 seeds into a fresh TraceCache. The pairs reuse the markets the
// single-region sets generated, so "market_generations" reads 64 (16
// markets x 4 seeds) against 40 "sets".
void BM_PaperSweepTraceFill(benchmark::State& state) {
  const auto regions = trace::canonical_regions();
  std::vector<sched::Scenario> shapes;
  for (const auto region : regions) {
    shapes.push_back(sched::Scenario{.horizon = 30 * sim::kDay,
                                     .regions = {std::string(region)}});
  }
  for (std::size_t a = 0; a < regions.size(); ++a) {
    for (std::size_t b = a + 1; b < regions.size(); ++b) {
      shapes.push_back(sched::Scenario{
          .horizon = 30 * sim::kDay,
          .regions = {std::string(regions[a]), std::string(regions[b])}});
    }
  }
  std::size_t sets = 0;
  std::size_t market_generations = 0;
  for (auto _ : state) {
    sched::TraceCache cache;
    for (int i = 0; i < 4; ++i) {
      for (auto s : shapes) {
        s.seed = metrics::run_seed(20150615, i);
        benchmark::DoNotOptimize(cache.get(s).get());
      }
    }
    sets = cache.generations();
    market_generations = cache.market_generations();
  }
  state.counters["sets"] = benchmark::Counter(static_cast<double>(sets));
  state.counters["market_generations"] =
      benchmark::Counter(static_cast<double>(market_generations));
}
BENCHMARK(BM_PaperSweepTraceFill)->Unit(benchmark::kMillisecond);

// The serve feed reader: one FileTailFeed pump of a generated 100k-row CSV
// (the 16 canonical markets, in time order), from a fresh feed each
// iteration. "rows/s" is the parse rate.
void BM_FeedParse(benchmark::State& state) {
  constexpr std::size_t kRows = 100000;
  const auto path =
      (std::filesystem::temp_directory_path() / "spothost_bench_feed_parse.csv").string();
  {
    std::vector<std::string> markets;
    for (const auto region : trace::canonical_regions()) {
      for (const char* size : {"small", "medium", "large", "xlarge"}) {
        markets.push_back(std::string(region) + "/" + size);
      }
    }
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "time,market,price\n";
    std::uint64_t rng_state = 11;
    for (std::size_t i = 0; i < kRows; ++i) {
      const auto price = 0.01 + static_cast<double>(sim::splitmix64(rng_state) % 10000) / 1e5;
      out << i * 1000 << ',' << markets[i % markets.size()] << ',' << price << '\n';
    }
    out << "end," << kRows * 1000 << '\n';
  }
  std::size_t rows = 0;
  for (auto _ : state) {
    live::FileTailFeed feed(path);
    rows = feed.pump();
    benchmark::DoNotOptimize(rows);
  }
  std::filesystem::remove(path);
  if (rows != kRows) state.SkipWithError("the feed reader dropped rows");
  state.counters["rows/s"] = benchmark::Counter(
      static_cast<double>(kRows), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_FeedParse)->Unit(benchmark::kMillisecond);

void BM_MvaSolve(benchmark::State& state) {
  const std::array<workload::Station, 2> stations{
      workload::Station{"cpu", 0.022, false}, workload::Station{"io", 0.06, false}};
  for (auto _ : state) {
    const auto r = workload::solve_closed_mva(stations,
                                              static_cast<int>(state.range(0)), 7.0);
    benchmark::DoNotOptimize(r.response_time_s);
  }
}
BENCHMARK(BM_MvaSolve)->Arg(100)->Arg(400);

}  // namespace

BENCHMARK_MAIN();

// Engine performance microbenchmarks (google-benchmark): event-queue
// throughput, synthetic trace generation and memoization, complete hosting
// runs, and the serve feed reader.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

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

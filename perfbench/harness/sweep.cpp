// sweep_paper: the 62 arms of Figs. 6, 7, 8, 9 and 11, declared exactly as
// their bench/ binaries declare them, times N seeds, on a SweepRunner whose
// run_all() fans the cells over the shared pool (SPOTHOST_THREADS workers).
//
// Set-up is declaring the arms and filling the sweep's TraceCache with every
// (scenario, seed) trace set; the run is run_all(). There is no fan-out here
// (one service per world), so this workload exercises the single-listener
// per-event path, trace generation and the pool.
#include <sstream>

#include "report.hpp"
#include "spothost.hpp"

namespace perfbench {
namespace {

using namespace spothost;

cloud::MarketId market(const std::string& region, const char* size) {
  return cloud::MarketId{region, cloud::size_from_string(size)};
}

sched::Scenario region_scenario(const std::string& region) {
  sched::Scenario s;
  s.horizon = 30 * sim::kDay;
  s.regions = {region};
  return s;
}

// bench_fig06_proactive_vs_reactive
void fig06(metrics::SweepRunner& sweep) {
  const auto scenario = region_scenario("us-east-1a");
  for (const char* size : {"small", "medium", "large", "xlarge"}) {
    const auto home = market("us-east-1a", size);
    for (const bool proactive : {false, true}) {
      sweep.add_arm(std::string(size) + " / " + (proactive ? "proactive" : "reactive"),
                    scenario,
                    proactive ? sched::proactive_config(home)
                              : sched::reactive_config(home));
    }
  }
}

// bench_fig07_migration_mechanisms
void fig07(metrics::SweepRunner& sweep) {
  const auto scenario = region_scenario("us-east-1a");
  const auto home = market("us-east-1a", "small");
  for (const auto combo :
       {virt::MechanismCombo::kCkpt, virt::MechanismCombo::kCkptLazy,
        virt::MechanismCombo::kCkptLive, virt::MechanismCombo::kCkptLazyLive}) {
    auto cfg = sched::proactive_config(home);
    cfg.combo = combo;
    cfg.mech = virt::typical_mechanism_params();
    sweep.add_arm(std::string(virt::to_string(combo)) + "/typical", scenario, cfg);
    cfg.mech = virt::pessimistic_mechanism_params();
    sweep.add_arm(std::string(virt::to_string(combo)) + "/pessimistic", scenario, cfg);
  }
}

// bench_fig08_multimarket
void fig08(metrics::SweepRunner& sweep) {
  for (const auto region_view : trace::canonical_regions()) {
    const std::string region{region_view};
    const auto scenario = region_scenario(region);
    for (const char* size : {"small", "medium", "large", "xlarge"}) {
      sweep.add_arm(region + "/" + size, scenario,
                    sched::proactive_config(market(region, size)));
    }
    auto cfg = sched::proactive_config(market(region, "small"));
    cfg.scope = sched::MarketScope::kMultiMarket;
    sweep.add_arm(region + "/multi", scenario, cfg);
  }
}

// bench_fig09_multiregion
void fig09(metrics::SweepRunner& sweep) {
  const std::vector<std::pair<std::string, std::string>> pairs{
      {"us-east-1a", "us-east-1b"}, {"us-east-1a", "us-west-1a"},
      {"us-east-1a", "eu-west-1a"}, {"us-east-1b", "us-west-1a"},
      {"us-east-1b", "eu-west-1a"}, {"us-west-1a", "eu-west-1a"}};
  for (const auto& [ra, rb] : pairs) {
    sched::Scenario scenario;
    scenario.horizon = 30 * sim::kDay;
    scenario.regions = {ra, rb};
    for (const auto& region : {ra, rb}) {
      auto cfg = sched::proactive_config(market(region, "small"));
      cfg.scope = sched::MarketScope::kMultiMarket;
      sweep.add_arm(ra + "+" + rb + "/" + region, scenario, cfg);
    }
    auto cfg = sched::proactive_config(market(ra, "small"));
    cfg.scope = sched::MarketScope::kMultiRegion;
    cfg.allowed_regions = {ra, rb};
    sweep.add_arm(ra + "+" + rb + "/multi", scenario, cfg);
  }
}

// bench_fig11_pure_spot
void fig11(metrics::SweepRunner& sweep) {
  const auto scenario = region_scenario("us-east-1a");
  for (const char* size : {"small", "medium", "large", "xlarge"}) {
    const auto home = market("us-east-1a", size);
    sweep.add_arm(std::string(size) + "/proactive", scenario,
                  sched::proactive_config(home));
    sweep.add_arm(std::string(size) + "/pure-spot", scenario,
                  sched::pure_spot_config(home));
  }
}

void declare_paper_arms(metrics::SweepRunner& sweep) {
  fig06(sweep);
  fig07(sweep);
  fig08(sweep);
  fig09(sweep);
  fig11(sweep);
}

/// Every field of one cell's RunMetrics; equal strings iff equal values.
std::string cell_json(const metrics::RunMetrics& m) {
  std::ostringstream o;
  o << "[" << json_number(m.total_cost) << ", " << json_number(m.attributed_cost)
    << ", " << json_number(m.baseline_od_cost) << ", "
    << json_number(m.normalized_cost_pct) << ", " << json_number(m.unavailability_pct)
    << ", " << json_number(m.downtime_s) << ", " << json_number(m.degraded_s) << ", "
    << json_number(m.longest_outage_s) << ", " << m.outages << ", " << m.forced
    << ", " << m.planned << ", " << m.reverse << ", " << m.cancelled_planned << ", "
    << m.market_switches << ", " << json_number(m.forced_per_hour) << ", "
    << json_number(m.planned_reverse_per_hour) << ", " << m.faults_injected << ", "
    << m.retries << ", " << m.degraded_entries << ", " << json_number(m.horizon_hours)
    << "]";
  return o.str();
}

/// The per-arm table the figure benches print, at full precision: label,
/// mean normalized cost %, unavailability %, forced/hr, planned+reverse/hr.
std::string table_json(const metrics::SweepRunner& sweep,
                       const std::vector<metrics::AggregatedMetrics>& results) {
  std::ostringstream o;
  o << "{\"cells\": " << sweep.arm_count() * sweep.runs() << ", \"arms\": [";
  for (int a = 0; a < sweep.arm_count(); ++a) {
    const auto& agg = results[static_cast<std::size_t>(a)];
    o << (a == 0 ? "" : ", ") << "[" << json_string(sweep.arm(a).label) << ", "
      << json_number(agg.normalized_cost_pct.mean) << ", "
      << json_number(agg.unavailability_pct.mean) << ", "
      << json_number(agg.forced_per_hour.mean) << ", "
      << json_number(agg.planned_reverse_per_hour.mean) << "]";
  }
  o << "]}";
  return o.str();
}

/// Set-up: declare the arms and fill the trace cache. Each cache fill that
/// generates is recorded as a "trace.generate" span when `spans` is given.
void set_up(metrics::SweepRunner& sweep, SpanRecorder* spans) {
  declare_paper_arms(sweep);
  for (int a = 0; a < sweep.arm_count(); ++a) {
    for (int i = 0; i < sweep.runs(); ++i) {
      const auto before = sweep.trace_cache()->generations();
      const auto t0 = Clock::now();
      (void)sweep.traces_for(sweep.arm(a).scenario, i);
      if (spans != nullptr) {
        spans->leaf(sweep.trace_cache()->generations() > before ? "trace.generate"
                                                                 : "trace.cache_hit",
                    t0, Clock::now());
      }
    }
  }
}

struct SerialCells {
  std::vector<double> cell_s;
  double loop_s = 0.0;        ///< event-loop time, from RunProfile
  std::uint64_t events = 0;
  std::vector<std::string> cells;  ///< cell_json, arm-major
  double total_s() const {
    double t = 0.0;
    for (const double c : cell_s) t += c;
    return t;
  }
};

/// Every cell of `sweep` in order on this thread, each exactly as run_all()
/// runs it, optionally with `tracer` attached.
SerialCells run_serially(const metrics::SweepRunner& sweep, SpanRecorder& spans,
                         obs::Tracer* tracer) {
  SerialCells out;
  const std::uint32_t cell_span = spans.id("metrics.cell");
  for (int a = 0; a < sweep.arm_count(); ++a) {
    for (int i = 0; i < sweep.runs(); ++i) {
      sched::Scenario s = sweep.arm(a).scenario;
      s.seed = sweep.seed_for(i);
      obs::RunProfile profile;
      Scoped cell(spans, cell_span);
      const auto t0 = Clock::now();
      const auto m = metrics::run_hosting_scenario(s, sweep.arm(a).config,
                                                   sweep.trace_cache()->get(s),
                                                   tracer, &profile);
      out.cell_s.push_back(seconds_between(t0, Clock::now()));
      out.loop_s += profile.wall_seconds;
      out.events += profile.events_dispatched;
      out.cells.push_back(cell_json(m));
    }
  }
  return out;
}

/// Price steps the cells dispatch: the change points in (0, horizon] of
/// every market of every cell's trace set.
double price_steps(const metrics::SweepRunner& sweep) {
  double steps = 0;
  for (int a = 0; a < sweep.arm_count(); ++a) {
    for (int i = 0; i < sweep.runs(); ++i) {
      const auto set = sweep.traces_for(sweep.arm(a).scenario, i);
      for (const auto& e : set->markets()) {
        for (const auto& p : e.prices.points()) {
          if (p.time > 0 && p.time <= set->horizon()) ++steps;
        }
      }
    }
  }
  return steps;
}

/// One parallel pass: set-up, then run_all(). `cells`, if given, receives
/// every cell's RunMetrics (arm-major).
Rep parallel_pass(int seeds, std::uint64_t seed, std::vector<std::string>* cells) {
  (void)exec::ThreadPool::shared();  // start the workers outside the timing
  const auto t0 = Clock::now();
  metrics::SweepRunner sweep(seeds, seed, metrics::Execution::kParallel);
  set_up(sweep, nullptr);
  const auto t1 = Clock::now();
  const auto results = sweep.run_all();
  const auto t2 = Clock::now();
  if (cells != nullptr) {
    for (const auto& agg : results) {
      for (const auto& m : agg.per_run) cells->push_back(cell_json(m));
    }
  }
  return Rep{seconds_between(t0, t1), seconds_between(t1, t2), peak_rss_mb(),
             table_json(sweep, results)};
}

}  // namespace

Result run_sweep(const Options& options) {
  const int seeds = options.tiny ? 2 : 60;
  metrics::SweepRunner declared(seeds, options.seed);
  declare_paper_arms(declared);
  const auto cells = static_cast<std::uint64_t>(declared.arm_count() * seeds);
  Result result;
  std::vector<double> setups;
  std::vector<double> runs;
  std::vector<double> peaks;
  std::string outputs;
  auto record = [&](const Rep& r) {
    setups.push_back(r.setup_s);
    runs.push_back(r.run_s);
    peaks.push_back(r.peak_rss_mb);
    result.attempted += cells;
    if (outputs.empty()) {
      outputs = r.outputs;
    } else if (r.outputs != outputs) {
      result.failed += cells;
      result.fail("sweep tables differ between passes");
    }
  };

  if (!options.trace) {
    repeat_within(options.seconds, 3, [&] {
      record(in_child([&] { return parallel_pass(seeds, options.seed, nullptr); }));
    });
    log_samples("setup_s", setups);
    log_samples("run_s", runs);
    log_samples("peak_rss_mb", peaks);
    result.add("setup_s", median(setups), "s");
    result.add("run_s", median(runs), "s");
    result.add("peak_rss_mb", median(peaks), "MiB");
    result.outputs = outputs;
    return result;
  }

  // Traced pass, in this process: one parallel pass for the reference cells
  // and run_s, then every cell serially twice, untraced and with an
  // obs::CounterSink.
  std::vector<std::string> parallel_cells;
  record(parallel_pass(seeds, options.seed, &parallel_cells));
  auto& pool = exec::ThreadPool::shared();
  SpanRecorder spans;
  obs::CounterSink counts;
  obs::Tracer tracer;
  tracer.add_sink(&counts);
  spans.open("sweep");
  metrics::SweepRunner sweep(seeds, options.seed, metrics::Execution::kSerial);
  {
    Scoped s(spans, "setup");
    set_up(sweep, &spans);
  }
  SerialCells plain;
  SerialCells traced;
  {
    Scoped s(spans, "untraced_cells");
    plain = run_serially(sweep, spans, nullptr);
  }
  const auto cache_hits = sweep.trace_cache()->hits();  // set-up + one pass
  {
    Scoped s(spans, "traced_cells");
    traced = run_serially(sweep, spans, &tracer);
  }
  spans.close();
  for (const SerialCells* pass : {&plain, &traced}) {
    result.attempted += pass->cells.size();
    for (std::size_t c = 0; c < pass->cells.size(); ++c) {
      if (c >= parallel_cells.size() || pass->cells[c] != parallel_cells[c]) {
        ++result.failed;
        result.fail("serial cell " + std::to_string(c) + " differs from run_all()");
      }
    }
  }

  Layers l;
  l.trace_generate_s = spans.total_s("trace.generate");
  l.trace_sets = static_cast<double>(sweep.trace_cache()->generations());
  l.trace_cache_hits = static_cast<double>(cache_hits);
  l.cloud_price_steps = price_steps(sweep);
  add_event_counts(counts, l);
  l.faults_injected = static_cast<double>(counts.count(obs::EventKind::kFaultInjected));
  l.simcore_events = static_cast<double>(plain.events);
  l.simcore_loop_s = plain.loop_s;
  std::vector<double> cell_ms;
  for (const double c : plain.cell_s) cell_ms.push_back(1e3 * c);
  l.metrics_cells = static_cast<double>(plain.cells.size());
  l.metrics_cell_ms_p50 = percentile(cell_ms, 50);
  l.metrics_cell_ms_p99 = percentile(cell_ms, 99);
  l.metrics_cell_samples = static_cast<double>(cell_ms.size());
  l.metrics_world_build_s = plain.total_s() - plain.loop_s;
  l.metrics_run_all_s = runs.front();
  l.exec_workers = static_cast<double>(pool.thread_count());
  l.exec_parallel_efficiency =
      plain.total_s() / (static_cast<double>(pool.thread_count()) * runs.front());
  l.obs_trace_overhead_pct = 100.0 * (traced.total_s() / plain.total_s() - 1.0);
  add_layer_metrics(result, l);
  result.outputs = outputs;
  spans.report(stderr);
  if (!options.spans_path.empty()) spans.write(options.spans_path);
  return result;
}

}  // namespace perfbench

// fleet_calm and fleet_storm: 10,000 proactive single-market services for
// 30 days through World + FleetScheduler + MarketWatcher + CloudProvider +
// MigrationEngine, one thread.
//
// fleet_calm keeps its homes in the two calm zones (us-west-1a, eu-west-1a),
// so nearly every price step is a no-op for every listener: watcher fan-out
// and the provider's running-spot scan do most of the work. fleet_storm puts
// them in the two us-east zones and injects every fault kind at rate 0.05,
// so crossings, migrations, retries and the event queue carry far more of
// the run.
#include <algorithm>
#include <map>
#include <optional>
#include <sstream>

#include "probes.hpp"
#include "report.hpp"
#include "spothost.hpp"

namespace perfbench {
namespace {

using namespace spothost;

struct FleetSpec {
  sched::Scenario scenario;
  sched::FleetConfig config;
};

FleetSpec fleet_spec(const Options& o, std::uint64_t seed) {
  auto market = [](const char* region, cloud::InstanceSize size) {
    return cloud::MarketId{region, size};
  };
  FleetSpec f;
  f.scenario.seed = seed;
  f.scenario.horizon = 30 * sim::kDay;
  f.config.num_services = o.tiny ? 200 : 10000;
  if (o.workload == "fleet_calm") {
    f.scenario.regions = {"us-west-1a", "eu-west-1a"};
    f.config.home_markets = {market("eu-west-1a", cloud::InstanceSize::kSmall),
                             market("us-west-1a", cloud::InstanceSize::kSmall),
                             market("eu-west-1a", cloud::InstanceSize::kMedium)};
  } else {
    f.scenario.regions = {"us-east-1a", "us-east-1b"};
    f.config.home_markets = {market("us-east-1a", cloud::InstanceSize::kSmall),
                             market("us-east-1b", cloud::InstanceSize::kSmall),
                             market("us-east-1a", cloud::InstanceSize::kLarge),
                             market("us-east-1b", cloud::InstanceSize::kXLarge)};
    for (const auto kind : faults::kAllFaultKinds) {
      f.scenario.fault_plan.with_rate(kind, 0.05);
    }
  }
  f.config.service_template = sched::proactive_config(f.config.home_markets.front());
  return f;
}

/// The checked outputs of one fleet-month, as a JSON object. Two runs
/// agree exactly iff their strings are equal (shortest round-trip digits).
std::string fleet_outputs(const sched::FleetMetrics& m, std::uint64_t dispatched,
                          std::size_t ledger_records) {
  std::ostringstream o;
  o << "{\"services\": " << m.services
    << ", \"total_cost\": " << json_number(m.total_cost)
    << ", \"attributed_cost\": " << json_number(m.attributed_cost)
    << ", \"baseline_od_cost\": " << json_number(m.baseline_od_cost)
    << ", \"normalized_cost_pct\": " << json_number(m.normalized_cost_pct)
    << ", \"mean_unavailability_pct\": " << json_number(m.mean_unavailability_pct)
    << ", \"worst_unavailability_pct\": " << json_number(m.worst_unavailability_pct)
    << ", \"any_down_pct\": " << json_number(m.any_down_pct)
    << ", \"max_concurrent_down\": " << m.max_concurrent_down
    << ", \"total_forced\": " << m.total_forced
    << ", \"total_planned\": " << m.total_planned
    << ", \"total_reverse\": " << m.total_reverse
    << ", \"dispatched\": " << dispatched
    << ", \"ledger_records\": " << ledger_records << "}";
  return o.str();
}

/// One fleet-month on the production path with nothing attached (peak RSS
/// is the caller's to read).
Rep untraced_month(const FleetSpec& spec) {
  Rep r;
  const auto t0 = Clock::now();
  sched::World world(spec.scenario);
  sched::FleetScheduler fleet(world.clock(), world.provider(), spec.config,
                              world.rng());
  fleet.start();
  const auto t1 = Clock::now();
  world.engine().run_until(world.horizon());
  world.provider().finalize(world.horizon());
  fleet.finalize(world.horizon());
  const auto metrics = fleet.metrics(world.horizon());
  const auto t2 = Clock::now();
  r.setup_s = seconds_between(t0, t1);
  r.run_s = seconds_between(t1, t2);
  r.outputs = fleet_outputs(metrics, world.engine().dispatched(),
                            world.provider().ledger().records().size());
  return r;
}

/// The set-up phase alone (built, then torn down).
double setup_only(const FleetSpec& spec) {
  const auto t0 = Clock::now();
  sched::World world(spec.scenario);
  sched::FleetScheduler fleet(world.clock(), world.provider(), spec.config,
                              world.rng());
  fleet.start();
  return seconds_between(t0, Clock::now());
}

/// Schedulers watching each market (keyed by MarketId::str()), derived from
/// the fleet config the way CloudScheduler::start() picks its markets:
/// candidate_markets() of its scope, plus its home market.
std::map<std::string, int> listeners_per_market(const FleetSpec& spec,
                                                const cloud::CloudProvider& provider) {
  std::map<std::string, int> out;
  const auto& homes = spec.config.home_markets;
  for (int i = 0; i < spec.config.num_services; ++i) {
    const sched::SchedulerConfig& t = spec.config.service_template;
    const auto& home = homes[static_cast<std::size_t>(i) % homes.size()];
    auto markets = sched::candidate_markets(provider, t.scope, home, t.allowed_regions);
    if (std::find(markets.begin(), markets.end(), home) == markets.end()) {
      markets.push_back(home);
    }
    for (const auto& m : markets) ++out[m.str()];
  }
  return out;
}

/// One fleet-month with spans around every call into the program, the
/// price-step probes, and an obs::CounterSink as the run's tracer.
Rep traced_month(const FleetSpec& spec, SpanRecorder& spans, Layers& l) {
  Rep r;
  obs::CounterSink counts;
  obs::Tracer tracer;
  tracer.add_sink(&counts);
  StepProbes probes(spans);  // outlives the markets it is subscribed to

  Scoped month(spans, "fleet_month");
  std::shared_ptr<const sched::MarketTraceSet> traces;
  std::optional<sched::World> world;
  std::optional<sched::FleetScheduler> fleet;
  {
    Scoped setup(spans, "setup");
    {
      Scoped s(spans, "trace.generate");
      traces = sched::MarketTraceSet::generate(spec.scenario);
    }
    {
      Scoped s(spans, "sched.world_build");
      world.emplace(spec.scenario, traces);
    }
    probes.subscribe_before(world->provider(),
                            listeners_per_market(spec, world->provider()));
    world->engine().set_tracer(&tracer);
    {
      Scoped s(spans, "sched.fleet_build");
      fleet.emplace(world->clock(), world->provider(), spec.config, world->rng());
      fleet->start();
    }
    probes.subscribe_after(world->provider());
  }

  std::vector<const trace::PriceTrace*> series;
  for (const auto& e : traces->markets()) series.push_back(&e.prices);
  const auto times = change_times(series, world->horizon());

  sched::FleetMetrics metrics;
  std::size_t pending_peak = 0;
  {
    Scoped run(spans, "run");
    pending_peak = run_sliced(world->engine(), times, world->horizon(), spans, probes);
    {
      Scoped s(spans, "sched.finalize");
      world->provider().finalize(world->horizon());
      fleet->finalize(world->horizon());
    }
    {
      Scoped s(spans, "sched.metrics");
      metrics = fleet->metrics(world->horizon());
    }
  }
  tracer.flush();
  r.run_s = spans.total_s("run");
  r.outputs = fleet_outputs(metrics, world->engine().dispatched(),
                            world->provider().ledger().records().size());

  l.trace_generate_s = spans.total_s("trace.generate");
  l.trace_sets = 1;
  l.sched_world_build_s = spans.total_s("sched.world_build");
  l.sched_fleet_build_s = spans.total_s("sched.fleet_build");
  l.sched_fanout_s = spans.total_s("sched.fanout");
  l.sched_deliveries = static_cast<double>(probes.deliveries());
  add_event_counts(counts, l);
  l.sched_finalize_s = spans.total_s("sched.finalize");
  l.sched_metrics_s = spans.total_s("sched.metrics");
  l.cloud_price_steps = static_cast<double>(probes.steps());
  l.cloud_price_step_s = spans.total_s("cloud.price_step");
  l.cloud_ledger_records = static_cast<double>(world->provider().ledger().records().size());
  l.simcore_events = static_cast<double>(world->engine().dispatched());
  l.simcore_loop_s = spans.total_s("simcore.between_steps") + spans.total_s("simcore.step");
  l.simcore_pending_peak = static_cast<double>(pending_peak);
  l.simcore_between_steps_s = spans.total_s("simcore.between_steps");
  l.faults_injected = static_cast<double>(world->faults().injected_total());
  l.traced_run_s = r.run_s;
  return r;
}

}  // namespace

// A run measures kMonths different fleet-months, seeds run_seed(seed, 0..3),
// and cycles through them again while time remains, so seed-to-seed
// differences in work and memory average out within one run.
constexpr int kMonths = 4;

Result run_fleet(const Options& options) {
  std::vector<FleetSpec> specs;
  for (int k = 0; k < kMonths; ++k) {
    specs.push_back(fleet_spec(options, metrics::run_seed(options.seed, k)));
  }
  Result result;
  std::vector<double> setups;
  std::vector<double> runs;
  std::vector<double> peaks;
  std::vector<std::string> outputs(kMonths);
  auto check = [&](int month, const std::string& got, const char* pass) {
    ++result.attempted;
    std::string& want = outputs[static_cast<std::size_t>(month)];
    if (want.empty()) {
      want = got;
    } else if (got != want) {
      ++result.failed;
      result.fail(std::string(pass) + " fleet-month diverged:\n  " + got +
                  "\n  expected " + want);
    }
  };

  if (!options.trace) {
    int next = 0;
    repeat_within(options.seconds, kMonths, [&] {
      const int month = next++ % kMonths;
      const Rep r = in_child([&] {
        Rep t = untraced_month(specs[static_cast<std::size_t>(month)]);
        t.peak_rss_mb = peak_rss_mb();
        return t;
      });
      setups.push_back(r.setup_s);
      runs.push_back(r.run_s);
      peaks.push_back(r.peak_rss_mb);
      check(month, r.outputs, "untraced");
    });
    // Set-up is short: time a few more set-ups so its median has samples.
    while (setups.size() < 9) {
      const int month = next++ % kMonths;
      setups.push_back(in_child([&] {
                         return Rep{setup_only(specs[static_cast<std::size_t>(month)]),
                                    0.0, 0.0, ""};
                       }).setup_s);
    }
    log_samples("setup_s", setups);
    log_samples("run_s", runs);
    log_samples("peak_rss_mb", peaks);
    result.add("setup_s", median(setups), "s");
    result.add("run_s", median(runs), "s");
    result.add("peak_rss_mb", median(peaks), "MiB");
  } else {
    // Untraced and traced passes over the first month alternate; the
    // per-layer split comes from the first traced pass, the tracing overhead
    // from the medians.
    SpanRecorder spans;
    Layers layers;
    std::vector<double> traced_runs;
    bool first = true;
    repeat_within(options.seconds, 1, [&] {
      const Rep u = untraced_month(specs[0]);
      runs.push_back(u.run_s);
      check(0, u.outputs, "untraced");
      SpanRecorder later_spans;  // passes after the first are timed only
      Layers later_layers;
      const Rep t = traced_month(specs[0], first ? spans : later_spans,
                                   first ? layers : later_layers);
      first = false;
      traced_runs.push_back(t.run_s);
      check(0, t.outputs, "traced");
    });
    layers.obs_trace_overhead_pct = overhead_pct(traced_runs, runs);
    add_layer_metrics(result, layers);
    spans.report(stderr);
    if (!options.spans_path.empty()) spans.write(options.spans_path);
  }
  // Recorded per seed: {"<seed>": {...}, ...}, the months this run measured.
  std::ostringstream o;
  o << "{";
  for (int k = 0; k < kMonths; ++k) {
    if (outputs[static_cast<std::size_t>(k)].empty()) continue;
    o << (o.tellp() > 1 ? ", " : "") << "\"" << specs[static_cast<std::size_t>(k)].scenario.seed
      << "\": " << outputs[static_cast<std::size_t>(k)];
  }
  o << "}";
  result.outputs = o.str();
  return result;
}

}  // namespace perfbench

// End-to-end fault-recovery behaviour: the injector wired into a full World,
// the scheduler's retry/backoff ladder, graceful degradation, and the
// provider-level warning faults. Everything here is deterministic — faults
// are either scheduled at exact opportunity indices or armed at rate 1.0.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/jsonl_sink.hpp"
#include "obs/ring_sink.hpp"
#include "obs/sink.hpp"
#include "simcore/simulation.hpp"
#include "spothost.hpp"

namespace spothost {
namespace {

using faults::FaultKind;
using faults::FaultPlan;

sched::Scenario small_scenario() {
  sched::Scenario scenario;
  scenario.seed = 20150615;
  scenario.horizon = 10 * sim::kDay;
  scenario.regions = {"us-east-1a", "us-east-1b"};
  scenario.sizes = {cloud::InstanceSize::kSmall, cloud::InstanceSize::kLarge};
  return scenario;
}

sched::SchedulerConfig multi_market_config() {
  sched::SchedulerConfig cfg =
      sched::proactive_config({"us-east-1a", cloud::InstanceSize::kSmall});
  cfg.scope = sched::MarketScope::kMultiMarket;
  return cfg;
}

struct RunResult {
  std::string jsonl;
  metrics::RunMetrics metrics;
};

/// run_hosting_scenario with two extras: the full JSONL trace is captured,
/// and `detach_injector` unplugs the injector from the simulation so we can
/// prove an *attached* empty plan changes nothing.
RunResult run_jsonl(const sched::Scenario& scenario,
                    const sched::SchedulerConfig& config,
                    bool detach_injector = false) {
  sched::World world(scenario);
  if (detach_injector) world.engine().set_fault_injector(nullptr);
  workload::AlwaysOnService service("hosted-service", virt::VmSpec{});
  std::ostringstream os;
  obs::Tracer tracer;
  obs::JsonlSink sink(os);
  tracer.add_sink(&sink);
  world.engine().set_tracer(&tracer);
  service.set_tracer(&tracer);
  sched::MarketWatcher watcher(world.provider());
  sched::CloudScheduler scheduler(world.clock(), world.provider(), watcher, service,
                                  config, world.stream("scheduler-timing"));
  scheduler.start();
  world.engine().run_until(world.horizon());
  world.provider().finalize(world.horizon());
  scheduler.finalize(world.horizon());
  tracer.flush();

  const double baseline = sched::effective_on_demand_price(
      world.provider(), config.home_market.region, config.home_market.size);
  RunResult result;
  result.metrics = metrics::compute_run_metrics(world.provider(), scheduler,
                                                service, world.horizon(),
                                                baseline);
  result.metrics.faults_injected =
      static_cast<int>(world.faults().injected_total());
  result.jsonl = os.str();
  return result;
}

TEST(FaultRecovery, EmptyPlanAttachedMatchesDetachedByteForByte) {
  const RunResult attached = run_jsonl(small_scenario(), multi_market_config());
  const RunResult detached =
      run_jsonl(small_scenario(), multi_market_config(), /*detach=*/true);
  EXPECT_EQ(attached.jsonl, detached.jsonl);
  EXPECT_EQ(attached.metrics.faults_injected, 0);
  EXPECT_EQ(attached.metrics.retries, 0);
  EXPECT_EQ(attached.metrics.degraded_entries, 0);
}

TEST(FaultRecovery, FaultedRunsAreSeedReproducible) {
  sched::Scenario scenario = small_scenario();
  scenario.fault_plan.with_rate(FaultKind::kAllocInsufficientCapacity, 0.25)
      .with_rate(FaultKind::kWarningDelayed, 0.5)
      .with_rate(FaultKind::kLiveCopyAbort, 0.5);
  const RunResult a = run_jsonl(scenario, multi_market_config());
  const RunResult b = run_jsonl(scenario, multi_market_config());
  EXPECT_EQ(a.jsonl, b.jsonl);
  EXPECT_EQ(a.metrics.faults_injected, b.metrics.faults_injected);
}

TEST(FaultRecovery, FaultsPerturbTheTraceAndAreVisibleInIt) {
  sched::Scenario faulted = small_scenario();
  faulted.fault_plan.with_rate(FaultKind::kWarningDelayed, 1.0)
      .at_opportunity(FaultKind::kAllocInsufficientCapacity, 1);
  const RunResult with_faults = run_jsonl(faulted, multi_market_config());
  const RunResult clean = run_jsonl(small_scenario(), multi_market_config());

  EXPECT_NE(with_faults.jsonl, clean.jsonl);
  EXPECT_NE(with_faults.jsonl.find("fault_injected"), std::string::npos);
  EXPECT_GT(with_faults.metrics.faults_injected, 0);
}

TEST(FaultRecovery, RetryRecoversFirstAcquisitionCapacityFault) {
  sched::Scenario scenario = small_scenario();
  scenario.fault_plan.at_opportunity(FaultKind::kAllocInsufficientCapacity, 1);

  // Retries on (defaults): one backoff, then the service comes up and stays
  // within a whisker of the fault-free availability.
  const RunResult on = run_jsonl(scenario, multi_market_config());
  EXPECT_GE(on.metrics.retries, 1);
  EXPECT_EQ(on.metrics.faults_injected, 1);
  EXPECT_LT(on.metrics.unavailability_pct, 5.0);

  // Retries off: the very first request dies and nothing re-arms acquisition,
  // so the service never starts — the whole horizon is an outage.
  sched::SchedulerConfig off_cfg = multi_market_config();
  off_cfg.retry = sched::RetryPolicy{.max_attempts = 0,
                                     .graceful_degradation = false};
  const RunResult off = run_jsonl(scenario, off_cfg);
  EXPECT_EQ(off.metrics.retries, 0);
  EXPECT_GT(off.metrics.unavailability_pct, 90.0);
}

TEST(FaultRecovery, ExhaustedBudgetDegradesToSlowRetryInsteadOfGivingUp) {
  sched::Scenario scenario = small_scenario();
  // Two consecutive capacity faults against a budget of one attempt: the
  // second failure exhausts the budget and graceful degradation must keep a
  // slow poll alive; opportunity 3 is clean and succeeds.
  scenario.fault_plan
      .at_opportunity(FaultKind::kAllocInsufficientCapacity, 1)
      .at_opportunity(FaultKind::kAllocInsufficientCapacity, 2);
  sched::SchedulerConfig cfg = multi_market_config();
  cfg.retry.max_attempts = 1;

  const RunResult r = run_jsonl(scenario, cfg);
  EXPECT_EQ(r.metrics.faults_injected, 2);
  EXPECT_GE(r.metrics.degraded_entries, 1);
  // Slow retry is capped at backoff_max_s, so the service still comes up
  // early in the 10-day horizon.
  EXPECT_LT(r.metrics.unavailability_pct, 5.0);
}

// --- provider-level warning faults -----------------------------------------

const cloud::MarketId kSmallEast{"us-east-1a", cloud::InstanceSize::kSmall};

/// One market: cheap at t=0, spikes above any sane bid at t=2h, recovers at
/// t=3h; zero-CV latencies so every timestamp below is exact.
class WarningFaultTest : public ::testing::Test {
 protected:
  explicit WarningFaultTest() : rng_(1234), provider_(sim_, rng_) {
    trace::PriceTrace t;
    t.append(0, 0.02);
    t.append(2 * sim::kHour, 0.50);
    t.append(3 * sim::kHour, 0.02);
    t.set_end(48 * sim::kHour);
    provider_.add_market(kSmallEast, std::move(t), 0.06);
    cloud::AllocationLatency lat;
    lat.on_demand_mean_s = 90.0;
    lat.on_demand_cv = 0.0;
    lat.spot_mean_s = 240.0;
    lat.spot_cv = 0.0;
    provider_.set_allocation_latency("us-east-1a", lat);
    provider_.start();
  }

  /// Arms the plan, attaches the injector, and runs one warned revocation.
  void run_revocation(const FaultPlan& plan) {
    injector_.emplace(sim_, rng_, plan);
    sim_.set_fault_injector(&*injector_);
    std::optional<cloud::InstanceId> iid;
    provider_.request_spot(
        kSmallEast, 0.06, [&](cloud::InstanceId i) { iid = i; },
        [](cloud::AllocFailure) {});
    sim_.run_until(sim::kHour);
    ASSERT_TRUE(iid.has_value());
    provider_.set_revocation_handler(
        *iid, [&](cloud::InstanceId i, sim::SimTime t_term) {
          warned_at_ = sim_.now();
          term_time_ = t_term;
          state_at_warning_ = provider_.instance(i).state;
        });
    sim_.run_until(5 * sim::kHour);
  }

  sim::Simulation sim_;
  sim::RngFactory rng_;
  cloud::CloudProvider provider_;
  std::optional<faults::FaultInjector> injector_;
  std::optional<sim::SimTime> warned_at_;
  std::optional<sim::SimTime> term_time_;
  std::optional<cloud::InstanceState> state_at_warning_;
};

TEST_F(WarningFaultTest, DroppedWarningStillDeliversAtTerminationTime) {
  FaultPlan plan;
  plan.with_rate(FaultKind::kWarningDropped, 1.0);
  run_revocation(plan);
  ASSERT_TRUE(warned_at_.has_value());
  // The advance notice is swallowed: the handler only hears about the
  // revocation at the termination instant itself (zero seconds of warning),
  // but it still fires *before* the instance is torn down.
  EXPECT_EQ(*term_time_, 2 * sim::kHour + 120 * sim::kSecond);
  EXPECT_EQ(*warned_at_, *term_time_);
  EXPECT_EQ(*state_at_warning_, cloud::InstanceState::kWarned);
}

TEST_F(WarningFaultTest, DelayedWarningShrinksTheGraceWindow) {
  FaultPlan plan;
  plan.with_rate(FaultKind::kWarningDelayed, 1.0);
  plan.warning_delay_s = 60.0;
  run_revocation(plan);
  ASSERT_TRUE(warned_at_.has_value());
  // 120 s of grace minus a 60 s delivery delay leaves 60 s of real notice.
  EXPECT_EQ(*warned_at_, 2 * sim::kHour + 60 * sim::kSecond);
  EXPECT_EQ(*term_time_, 2 * sim::kHour + 120 * sim::kSecond);
  EXPECT_EQ(*state_at_warning_, cloud::InstanceState::kWarned);
}

TEST_F(WarningFaultTest, ForcedReplacementLadderBacksOffThenPollsUntilAGrant) {
  // The 2 h spike revokes a reactive scheduler's spot server. Capacity
  // opportunity 1 is that server's grant; the next max_attempts + 2 are the
  // forced flow's on-demand replacements, and every one of them fails: the
  // budget's backoff rungs, then two slow polls in degraded mode. The
  // replacement after them is granted and the service resumes on it.
  const sched::RetryPolicy retry;  // 3 attempts, 20 s doubling, 300 s cap
  const int failures = retry.max_attempts + 2;
  FaultPlan plan;
  for (int n = 2; n <= failures + 1; ++n) {
    plan.at_opportunity(FaultKind::kAllocInsufficientCapacity,
                        static_cast<std::uint64_t>(n));
  }
  injector_.emplace(sim_, rng_, plan);
  sim_.set_fault_injector(&*injector_);
  obs::RingBufferSink sink;
  obs::Tracer tracer;
  tracer.add_sink(&sink);
  sim_.set_tracer(&tracer);

  sched::SchedulerConfig cfg = sched::reactive_config(kSmallEast);
  cfg.retry = retry;
  cfg.timing_jitter_cv = 0.0;
  workload::AlwaysOnService service("hosted-service", virt::VmSpec{});
  sched::MarketWatcher watcher(provider_);
  sched::CloudScheduler scheduler(sim_, provider_, watcher, service, cfg,
                                  rng_.stream("scheduler-timing"));
  scheduler.start();
  sim_.run_until(5 * sim::kHour);

  std::vector<obs::TraceEvent> retries;
  std::vector<std::size_t> retry_at;  // positions in the trace
  std::vector<std::size_t> degraded_at;
  std::optional<obs::TraceEvent> resumed;
  const auto events = sink.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::TraceEvent& e = events[i];
    if (e.kind == obs::EventKind::kRetryScheduled) {
      EXPECT_EQ(e.code, obs::code::kRetryForcedDest);
      retries.push_back(e);
      retry_at.push_back(i);
    } else if (e.kind == obs::EventKind::kDegradedMode) {
      EXPECT_EQ(e.code, obs::code::kDegradeSlowRetry);
      degraded_at.push_back(i);
    } else if (e.kind == obs::EventKind::kMigrationSwitchover &&
               e.code == obs::code::kForced && !resumed) {
      resumed = e;
    }
  }
  ASSERT_EQ(retries.size(), static_cast<std::size_t>(failures));
  const sim::SimTime od_latency = 90 * sim::kSecond;
  EXPECT_EQ(retries[0].t, 2 * sim::kHour + od_latency);  // the first replacement
  for (int n = 1; n <= failures; ++n) {
    SCOPED_TRACE(n);
    const obs::TraceEvent& e = retries[static_cast<std::size_t>(n - 1)];
    EXPECT_EQ(e.value, static_cast<double>(n));
    EXPECT_EQ(e.aux, n <= retry.max_attempts ? retry.backoff_s(n) : retry.backoff_max_s);
    EXPECT_EQ(e.market, kSmallEast.str());
    if (n > 1) {
      // Each rung re-requests after its delay; the request fails on grant.
      const obs::TraceEvent& before = retries[static_cast<std::size_t>(n - 2)];
      EXPECT_EQ(e.t, before.t + sim::from_seconds(before.aux) + od_latency);
    }
  }
  // Degraded mode is announced once, just before the first rung past the
  // budget.
  ASSERT_EQ(degraded_at.size(), 1u);
  const std::size_t first_slow = static_cast<std::size_t>(retry.max_attempts);
  EXPECT_EQ(degraded_at[0] + 1, retry_at[first_slow]);
  EXPECT_EQ(events[degraded_at[0]].t, retries[first_slow].t);
  EXPECT_EQ(events[degraded_at[0]].market, kSmallEast.str());

  // The request after the last slow poll is granted, and the forced flow
  // resumes the service on it.
  ASSERT_TRUE(resumed.has_value());
  const sim::SimTime granted =
      retries.back().t + sim::from_seconds(retry.backoff_max_s) + od_latency;
  EXPECT_GE(resumed->t, granted);
  EXPECT_EQ(provider_.instance(resumed->instance).requested_at,
            granted - od_latency);
  EXPECT_EQ(provider_.instance(resumed->instance).mode, cloud::BillingMode::kOnDemand);
  EXPECT_EQ(injector_->injected_total(), static_cast<std::uint64_t>(failures));
  EXPECT_EQ(scheduler.stats().degraded_entries, 1);
}

}  // namespace
}  // namespace spothost

// HostingSession: one hosted service wired over any sim::Engine.
//
// This is the World/run_hosting_scenario wiring factored out so the serve
// binary and the sim/live parity test assemble *exactly* the same object
// graph — rng factory, fault injector (empty plan: zero draws, zero
// events), provider, Table-1 allocation latencies, markets, service,
// scheduler — differing only in the engine underneath (Simulation vs
// WallClock) and in how market prices arrive (pre-loaded trace vs
// FeedDriver pushing a PriceFeed).
//
// Two-phase on purpose: the constructor wires the provider and calls
// provider->start() (trace-fed markets schedule their price chains here;
// push-fed ones wait for a FeedDriver), but the scheduler is not built
// until start(). That leaves a gap where a FeedDriver can schedule the
// push-fed chains at the exact event-sequence position trace mode gives
// them — the (time, schedule-seq) tie-break the parity contract rests on.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cloud/provider.hpp"
#include "faults/injector.hpp"
#include "sched/scheduler.hpp"
#include "simcore/engine.hpp"
#include "simcore/rng.hpp"
#include "trace/price_trace.hpp"
#include "workload/service.hpp"

namespace spothost::obs {
class Tracer;
}

namespace spothost::live {

/// One market to register. With a trace: trace-fed (the simulation path;
/// the trace must outlive the session). Without: push-fed, to be driven by
/// a FeedDriver.
struct SessionMarket {
  cloud::MarketId id;
  double on_demand_price = 0.0;
  const trace::PriceTrace* trace = nullptr;
};

struct SessionSpec {
  std::uint64_t seed = 42;
  sim::SimTime grace_period = 120 * sim::kSecond;
  std::vector<SessionMarket> markets;
  sched::SchedulerConfig config;
  std::string service_name = "hosted-service";
};

class HostingSession {
 public:
  /// Wires everything but the scheduler. The engine must be freshly
  /// constructed (time 0) and outlive the session.
  HostingSession(sim::Engine& engine, const SessionSpec& spec);

  /// Attaches a tracer to the engine and the service. Call before start().
  void attach_tracer(obs::Tracer* tracer);

  /// Builds the scheduler and kicks off acquisition. For push-fed markets,
  /// call FeedDriver::start() first (the chains must already be scheduled,
  /// and the markets primed). Call once.
  void start();

  /// Closes billing and availability accounting at `at` — provider first,
  /// then scheduler, the run_hosting_scenario order.
  void finalize(sim::SimTime at);

  [[nodiscard]] cloud::CloudProvider& provider() noexcept { return *provider_; }
  [[nodiscard]] sched::CloudScheduler& scheduler();

 private:
  sim::Engine& engine_;
  sim::RngFactory rng_factory_;
  sched::SchedulerConfig config_;
  std::unique_ptr<faults::FaultInjector> faults_;
  std::unique_ptr<cloud::CloudProvider> provider_;
  std::unique_ptr<workload::AlwaysOnService> service_;
  /// Built with the scheduler in start(); declared first so it outlives it.
  std::unique_ptr<sched::MarketWatcher> watcher_;
  std::unique_ptr<sched::CloudScheduler> scheduler_;
};

}  // namespace spothost::live

// E-commerce scenario (the paper's motivating workload): a TPC-W-style
// shopping site that must stay up — every minute of downtime during peak
// hours loses revenue. This example combines the hosting simulation with
// the TPC-W response-time model to answer the business question: what does
// moving from on-demand to the spot scheduler save, and what does the
// residual downtime cost?
#include <iostream>

#include "spothost.hpp"

using namespace spothost;

namespace {

// Revenue at risk per minute of outage, attributed to this one server's
// share of the fleet.
constexpr double kRevenuePerMinuteDown = 25.0;
constexpr int kPeakBrowsers = 150;

double downtime_cost(const metrics::RunMetrics& m) {
  return m.downtime_s / 60.0 * kRevenuePerMinuteDown;
}

}  // namespace

int main() {
  sched::Scenario scenario;
  scenario.seed = 7;
  scenario.horizon = 30 * sim::kDay;
  const cloud::MarketId home{"us-east-1a", cloud::InstanceSize::kMedium};

  std::cout << "== shop.example.com: one month of hosting ==\n\n";

  // --- infrastructure cost under three strategies ------------------------
  const auto proactive =
      metrics::run_hosting_scenario(scenario, sched::proactive_config(home));
  const auto reactive =
      metrics::run_hosting_scenario(scenario, sched::reactive_config(home));
  const auto pure_spot =
      metrics::run_hosting_scenario(scenario, sched::pure_spot_config(home));

  metrics::TextTable table({"strategy", "infra $", "downtime min",
                            "lost revenue $", "total $"});
  auto row = [&](const std::string& label, double infra, double downtime_min,
                 double lost) {
    table.add_row({label, metrics::fmt(infra, 2),
                   metrics::fmt(downtime_min, 1), metrics::fmt(lost, 0),
                   metrics::fmt(infra + lost, 0)});
  };
  row("on-demand only", proactive.baseline_od_cost, 0.0, 0.0);
  row("proactive scheduler", proactive.attributed_cost,
      proactive.downtime_s / 60.0, downtime_cost(proactive));
  row("reactive scheduler", reactive.attributed_cost, reactive.downtime_s / 60.0,
      downtime_cost(reactive));
  row("pure spot", pure_spot.attributed_cost, pure_spot.downtime_s / 60.0,
      downtime_cost(pure_spot));
  table.print(std::cout);

  // --- user-visible performance on the nested VM --------------------------
  std::cout << "\npeak-hour page latency (TPC-W, " << kPeakBrowsers
            << " concurrent browsers):\n";
  const workload::TpcwModel tpcw;
  const double native_ms = tpcw.response_time_ms(
      kPeakBrowsers, workload::TpcwScenario::kWithImages,
      workload::HostKind::kNativeVm);
  const double nested_ms = tpcw.response_time_ms(
      kPeakBrowsers, workload::TpcwScenario::kWithImages,
      workload::HostKind::kNestedVm);
  std::cout << "  native VM:  " << metrics::fmt(native_ms, 0) << " ms\n"
            << "  nested VM:  " << metrics::fmt(nested_ms, 0)
            << " ms  (the nested-virtualization tax on an I/O-bound site)\n";

  // --- what the visitors experienced ---------------------------------------
  // Re-run the proactive month with direct access to the availability books
  // and feed them through the diurnal-traffic experience model.
  {
    sched::World world(scenario);
    workload::AlwaysOnService svc("shop", virt::default_spec_for_memory(3.75, 8.0));
    sched::MarketWatcher watcher(world.provider());
    sched::CloudScheduler scheduler(world.clock(), world.provider(), watcher, svc,
                                    sched::proactive_config(home),
                                    world.stream("xp"));
    scheduler.start();
    world.engine().run_until(world.horizon());
    world.provider().finalize(world.horizon());
    scheduler.finalize(world.horizon());

    workload::ExperienceConfig xp;
    xp.peak_browsers = kPeakBrowsers;
    const auto report =
        workload::evaluate_experience(svc.availability(), world.horizon(), xp);
    const auto stats =
        workload::compute_outage_stats(svc.availability(), world.horizon());
    std::cout << "\nvisitor experience over the month (diurnal traffic):\n"
              << "  failed requests:  "
              << metrics::fmt(100.0 * report.failed_fraction, 4) << "%\n"
              << "  served degraded:  "
              << metrics::fmt(100.0 * report.degraded_fraction, 4)
              << "% (lazy-restore windows)\n"
              << "  mean response:    " << metrics::fmt(report.mean_response_ms, 0)
              << " ms, apdex " << metrics::fmt(report.apdex, 3) << "\n"
              << "  reliability:      MTTR " << metrics::fmt(stats.mttr_s, 0)
              << " s, MTBF " << metrics::fmt(stats.mtbf_hours, 0) << " h\n";
  }

  // --- the punchline -------------------------------------------------------
  const double saved = proactive.baseline_od_cost - proactive.attributed_cost -
                       downtime_cost(proactive);
  std::cout << "\nproactive spot hosting "
            << (saved >= 0 ? "nets $" + metrics::fmt(saved, 0) + " saved"
                           : "loses $" + metrics::fmt(-saved, 0))
            << " per server-month after revenue risk ("
            << metrics::fmt(proactive.normalized_cost_pct, 0)
            << "% of on-demand infra cost, "
            << metrics::fmt(proactive.unavailability_pct, 4)
            << "% unavailability)\n";
  std::cout << "pure spot would have LOST $"
            << metrics::fmt(downtime_cost(pure_spot) - downtime_cost(proactive), 0)
            << " more in revenue than it saves — the paper's Table 3 in "
               "dollars\n";
  return 0;
}

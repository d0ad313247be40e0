// spothost_sim — command-line front end to the hosting simulator.
//
//   spothost_sim [options]
//     --region R        home region               (default us-east-1a)
//     --size S          small|medium|large|xlarge (default small)
//     --policy P        proactive|reactive|pure-spot (default proactive)
//     --scope S         single|multi-market|multi-region (default single)
//     --combo C         ckpt|ckpt-lr|ckpt-live|ckpt-lr-live (default ckpt-lr-live)
//     --days N          horizon in days           (default 30)
//     --seeds N         runs to aggregate         (default 5)
//     --seed N          base seed                 (default 20150615)
//     --bid K           proactive bid multiple    (default 4)
//     --pessimistic     use the pessimistic mechanism parameters
//     --estimate        also print the closed-form trace estimate
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>

#include "spothost.hpp"

using namespace spothost;

namespace {

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      "usage: spothost_sim [--region R] [--size S] [--policy P] [--scope S]\n"
      "                    [--combo C] [--days N] [--seeds N] [--seed N]\n"
      "                    [--bid K] [--pessimistic] [--estimate]\n";
  std::exit(error.empty() ? 0 : 2);
}

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

/// `text` as the value of positive number flag `flag`, or a usage error
/// naming it.
double positive_flag(const std::string& flag, const std::string& text) {
  const auto x = exec::parse_double(text.c_str(),
                                    std::numeric_limits<double>::denorm_min(),
                                    std::numeric_limits<double>::max());
  if (!x) usage(flag + " must be a finite number > 0, got '" + text + "'");
  return *x;
}

virt::MechanismCombo parse_combo(const std::string& s) {
  if (s == "ckpt") return virt::MechanismCombo::kCkpt;
  if (s == "ckpt-lr") return virt::MechanismCombo::kCkptLazy;
  if (s == "ckpt-live") return virt::MechanismCombo::kCkptLive;
  if (s == "ckpt-lr-live") return virt::MechanismCombo::kCkptLazyLive;
  usage("unknown combo: " + s);
}

}  // namespace

int main(int argc, char** argv) {
  std::string region = "us-east-1a";
  std::string size = "small";
  std::string policy = "proactive";
  std::string scope = "single";
  virt::MechanismCombo combo = virt::MechanismCombo::kCkptLazyLive;
  int days = 30;
  int seeds = 5;
  std::uint64_t base_seed = 20150615;
  double bid_multiple = 4.0;
  bool pessimistic = false;
  bool estimate = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--region") region = next();
    else if (arg == "--size") size = next();
    else if (arg == "--policy") policy = next();
    else if (arg == "--scope") scope = next();
    else if (arg == "--combo") combo = parse_combo(next());
    else if (arg == "--days") days = int_flag(arg, next(), 1, 36500);
    else if (arg == "--seeds") seeds = int_flag(arg, next(), 1, 1000000);
    else if (arg == "--seed") base_seed = seed_flag(arg, next());
    else if (arg == "--bid") bid_multiple = positive_flag(arg, next());
    else if (arg == "--pessimistic") pessimistic = true;
    else if (arg == "--estimate") estimate = true;
    else if (arg == "--help" || arg == "-h") usage();
    else usage("unknown option: " + arg);
  }

  cloud::MarketId home;
  try {
    home = cloud::MarketId{region, cloud::size_from_string(size)};
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }

  sched::SchedulerConfig config;
  if (policy == "proactive") {
    config = sched::proactive_config(home);
    config.bid.proactive_multiple = bid_multiple;
  } else if (policy == "reactive") {
    config = sched::reactive_config(home);
  } else if (policy == "pure-spot") {
    config = sched::pure_spot_config(home);
  } else {
    usage("unknown policy: " + policy);
  }
  if (scope == "single") config.scope = sched::MarketScope::kSingleMarket;
  else if (scope == "multi-market") config.scope = sched::MarketScope::kMultiMarket;
  else if (scope == "multi-region") config.scope = sched::MarketScope::kMultiRegion;
  else usage("unknown scope: " + scope);
  config.combo = combo;
  if (pessimistic) config.mech = virt::pessimistic_mechanism_params();

  sched::Scenario scenario;
  scenario.horizon = days * sim::kDay;
  // The home market must exist in the world every run builds.
  const auto regions = sched::normalized_scenario(scenario).regions;
  if (std::find(regions.begin(), regions.end(), region) == regions.end()) {
    std::string known;
    for (const auto& r : regions) known += (known.empty() ? "" : ", ") + r;
    usage("--region must be one of " + known + ", got '" + region + "'");
  }

  metrics::SweepRunner sweep(seeds, base_seed);
  sweep.add_arm(policy, scenario, config);
  const auto agg = sweep.run_all().front();

  std::cout << policy << " " << home.str() << " (" << scope << ", "
            << virt::to_string(combo) << (pessimistic ? ", pessimistic" : "")
            << "), " << days << " days x " << seeds << " seeds\n\n";
  metrics::TextTable table({"metric", "mean", "stddev", "min", "max"});
  auto row = [&](const std::string& name, const metrics::Aggregate& a, int prec) {
    table.add_row({name, metrics::fmt(a.mean, prec), metrics::fmt(a.stddev, prec),
                   metrics::fmt(a.min, prec), metrics::fmt(a.max, prec)});
  };
  row("cost % of on-demand", agg.normalized_cost_pct, 1);
  row("unavailability %", agg.unavailability_pct, 4);
  row("forced migrations/hr", agg.forced_per_hour, 4);
  row("planned+reverse/hr", agg.planned_reverse_per_hour, 4);
  row("downtime s", agg.downtime_s, 0);
  table.print(std::cout);

  if (estimate) {
    sched::Scenario est_scenario = scenario;
    est_scenario.seed = base_seed;
    sched::World world(est_scenario);
    const auto& price_trace = world.provider().market(home).price_trace();
    sched::EstimateParams params;
    params.bid_multiple = (policy == "proactive") ? bid_multiple : 1.0 + 1e-9;
    params.combo = combo;
    if (pessimistic) params.mech = virt::pessimistic_mechanism_params();
    const auto est = sched::estimate_hosting(
        price_trace, world.provider().od_price(home), params);
    std::cout << "\nclosed-form estimate (seed " << base_seed
              << "): cost " << metrics::fmt(est.normalized_cost_pct, 1)
              << "%, unavailability "
              << metrics::fmt(est.unavailability_pct, 4) << "%, "
              << est.trace_stats.excursions_above_pon << " excursions ("
              << est.trace_stats.excursions_above_bid << " above bid)\n";
  }
  return 0;
}

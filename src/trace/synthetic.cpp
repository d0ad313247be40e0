#include "trace/synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace spothost::trace {
namespace {

constexpr double kMinPrice = 0.001;  // floor, $/hr — EC2 never quotes 0

// Price contributed by a spike at time t (0 if t outside the spike).
double spike_level_at(const SpikeEvent& s, sim::SimTime t, double base_floor) {
  if (t < s.start || t >= s.end) return 0.0;
  // Onset ramp: step r of ramp_steps reaches magnitude * (r+1)/ramp_steps.
  const sim::SimTime since = t - s.start;
  const int step = (s.ramp_spacing > 0)
                       ? static_cast<int>(since / s.ramp_spacing)
                       : s.ramp_steps;
  const int level = std::min(step + 1, s.ramp_steps);
  const double frac = static_cast<double>(level) / static_cast<double>(s.ramp_steps);
  return std::max(base_floor, s.magnitude * frac);
}

}  // namespace

SpikeEvent SyntheticSpotModel::draw_spike(sim::SimTime at, double on_demand_price,
                                          const MarketProfile& profile,
                                          sim::RngStream& rng) {
  SpikeEvent s;
  s.start = at;
  double magnitude =
      on_demand_price * rng.pareto(profile.spike_pareto_xm, profile.spike_pareto_alpha);
  magnitude = std::min(magnitude, on_demand_price * profile.spike_cap_multiple);
  s.magnitude = magnitude;
  const double duration_min = rng.lognormal_mean_cv(profile.spike_duration_mean_minutes,
                                                    profile.spike_duration_cv);
  const sim::SimTime duration =
      std::max<sim::SimTime>(sim::kMinute, sim::from_seconds(duration_min * 60.0));
  s.end = at + duration;
  s.ramp_steps = (profile.max_ramp_steps <= 1)
                     ? 1
                     : static_cast<int>(rng.uniform_int(1, profile.max_ramp_steps));
  s.ramp_spacing = (s.ramp_steps > 1)
                       ? sim::from_seconds(std::max(
                             1.0, rng.exponential(profile.ramp_step_mean_seconds)))
                       : 0;
  return s;
}

SharedSpikeSchedule SyntheticSpotModel::generate_shared_spikes(
    double rate_per_day, const MarketProfile& profile, sim::SimTime horizon,
    sim::RngStream& rng) {
  std::vector<SpikeEvent> spikes;
  if (rate_per_day <= 0) return SharedSpikeSchedule{};
  const double mean_gap_ms = static_cast<double>(sim::kDay) / rate_per_day;
  sim::SimTime t = sim::from_seconds(rng.exponential(mean_gap_ms / 1000.0));
  while (t < horizon) {
    // Magnitude relative to p_on = 1; consumers rescale per market.
    spikes.push_back(draw_spike(t, 1.0, profile, rng));
    t += sim::from_seconds(rng.exponential(mean_gap_ms / 1000.0));
  }
  return SharedSpikeSchedule(std::move(spikes));
}

PriceTrace SyntheticSpotModel::generate(const MarketProfile& profile,
                                        double on_demand_price, sim::SimTime horizon,
                                        sim::RngStream& rng,
                                        const SharedSpikeSchedule* shared) {
  if (horizon <= 0) throw std::invalid_argument("SyntheticSpotModel: horizon <= 0");
  if (on_demand_price <= 0) {
    throw std::invalid_argument("SyntheticSpotModel: on-demand price <= 0");
  }

  // 1. Base level changes: (time, base price) step sequence.
  std::vector<PricePoint> base;
  const double mean_base = on_demand_price * profile.base_fraction;
  auto draw_base = [&]() {
    const double level = mean_base * std::exp(rng.normal(0.0, profile.base_jitter_sigma));
    return std::max(kMinPrice, level);
  };
  sim::SimTime t = 0;
  base.push_back({0, draw_base()});
  while (true) {
    const double gap_min = rng.exponential(profile.base_change_mean_minutes);
    t += std::max<sim::SimTime>(sim::kSecond, sim::from_seconds(gap_min * 60.0));
    if (t >= horizon) break;
    base.push_back({t, draw_base()});
  }

  // 2. Own spikes (Poisson), plus adopted shared spikes.
  std::vector<SpikeEvent> spikes;
  const double own_rate = profile.spike_rate_per_day * (1.0 - profile.shared_spike_fraction);
  if (own_rate > 0) {
    const double mean_gap_s = 86400.0 / own_rate;
    sim::SimTime st = sim::from_seconds(rng.exponential(mean_gap_s));
    while (st < horizon) {
      spikes.push_back(draw_spike(st, on_demand_price, profile, rng));
      st += sim::from_seconds(rng.exponential(mean_gap_s));
    }
  }
  if (shared != nullptr && profile.shared_spike_fraction > 0) {
    for (const SpikeEvent& s : shared->spikes()) {
      if (rng.chance(profile.shared_spike_fraction) && s.start < horizon) {
        SpikeEvent scaled = s;  // shared magnitudes are multiples of p_on
        scaled.magnitude *= on_demand_price;
        spikes.push_back(scaled);
      }
    }
  }

  // 3. Merge into a step function: evaluate at every base change, spike ramp
  // step, and spike end; price = max(base, active spike levels). Sorted and
  // de-duplicated, the breakpoints ascend strictly, so the governing base
  // level is found by walking forward through `base`, not by a search.
  std::size_t n_breakpoints = base.size();
  for (const auto& s : spikes) {
    n_breakpoints += static_cast<std::size_t>(s.ramp_steps) + 1;
  }
  std::vector<sim::SimTime> breakpoints;
  breakpoints.reserve(n_breakpoints);
  for (const auto& b : base) breakpoints.push_back(b.time);
  for (const auto& s : spikes) {
    for (int r = 0; r < s.ramp_steps; ++r) {
      const sim::SimTime rt = s.start + static_cast<sim::SimTime>(r) * s.ramp_spacing;
      if (rt < horizon) breakpoints.push_back(rt);
    }
    if (s.end < horizon) breakpoints.push_back(s.end);
  }
  std::sort(breakpoints.begin(), breakpoints.end());
  breakpoints.erase(std::unique(breakpoints.begin(), breakpoints.end()),
                    breakpoints.end());

  PriceTrace out;
  std::size_t b = 0;  // base[b] governs `when`: the last base change <= when
  for (const sim::SimTime when : breakpoints) {
    while (b + 1 < base.size() && base[b + 1].time <= when) ++b;
    double price = base[b].price;
    for (const auto& s : spikes) {
      price = std::max(price, spike_level_at(s, when, price));
    }
    out.append(when, price);  // breakpoints strictly ascend
  }
  out.set_end(horizon);
  return out;
}

}  // namespace spothost::trace

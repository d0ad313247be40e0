// Fleet-scale event-core benchmark: how many scheduler events per second the
// simulation core sustains as the fleet grows 1k -> 1M services.
//
// The workload is the fleet pattern distilled: every service keeps a
// periodic hour-tick chain alive (schedule-next-inside-the-callback, the
// shape of CloudScheduler's reverse-migration hour checks), and every tick
// schedules a poll event of which half are cancelled before firing (the
// planned-migration cancel churn in CloudScheduler). Services are staggered across a few
// hundred launch cohorts but share the billing period, so events arrive in
// synchronized same-millisecond bursts — the shape real fleets produce
// (billing hours align to launch waves, planned migrations to market price
// steps), and the shape the batched trigger fan-out exists for.
//
// Output: a human table on stdout plus BENCH_fleet.json (schema 4) in the
// working directory. events_per_sec counts FIRED events against the
// wall-clock time of the run loop (setup excluded); rss_mb samples VmRSS
// while the queue still holds the fleet's pending events, peak_rss_mb is
// the process-wide VmHWM high-water mark (monotone across arms — sizes run
// ascending so each arm's peak is its own). hardware_threads records the
// machine the numbers were taken on.
//
// Knobs: SPOTHOST_RUNS=1 selects the CI smoke sizes; SPOTHOST_FLEET_EVENTS
// overrides the ~per-arm fired-event budget.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "simcore/simulation.hpp"

namespace {

using namespace spothost;

constexpr sim::SimTime kPeriod = sim::kHour;

struct Service {
  std::uint32_t ticks_done = 0;
  sim::EventHandle tick;
  sim::EventHandle poll;
};

// N services running periodic tick chains with poll-and-cancel churn.
class SyntheticFleet {
 public:
  // Launch waves: services within a cohort share their tick millisecond,
  // and all cohorts share the billing period, so the bursts persist.
  static constexpr std::size_t kCohorts = 512;

  SyntheticFleet(sim::Clock& clock, std::size_t n, std::uint32_t ticks_each)
      : clock_(clock), ticks_each_(ticks_each), services_(n) {
    for (std::size_t i = 0; i < n; ++i) {
      services_[i].tick = clock_.at(1 + cohort(i), [this, i] { on_tick(i); });
    }
  }

  [[nodiscard]] std::uint64_t fired() const noexcept { return fired_; }

  [[nodiscard]] sim::SimTime horizon() const noexcept {
    return static_cast<sim::SimTime>(ticks_each_ + 3) * kPeriod;
  }

 private:
  static sim::SimTime cohort(std::size_t i) noexcept {
    return static_cast<sim::SimTime>((i * 2654435761u) % kCohorts);
  }

  void on_tick(std::size_t i) {
    Service& svc = services_[i];
    ++fired_;
    // Half the polls are cancelled while pending (poll delay exceeds one
    // period, so the previous tick's poll is still live here); the other
    // half fire and count. Deterministic parity, no RNG in the hot loop.
    if (((svc.ticks_done ^ i) & 1u) == 0) svc.poll.cancel();
    // Polls land on the cohort grid shortly after the next tick burst —
    // planned-migration checks align to the same hour/price-step boundaries
    // the ticks do.
    const auto poll_delay = kPeriod + 1 + 2 * cohort(i) +
                            static_cast<sim::SimTime>(i & 1u);
    svc.poll = clock_.after(poll_delay, [this, i] {
      ++fired_;
      services_[i].poll.reset();
    });
    if (++svc.ticks_done < ticks_each_) {
      svc.tick = clock_.after(kPeriod, [this, i] { on_tick(i); });
    }
  }

  sim::Clock& clock_;
  std::uint32_t ticks_each_;
  std::vector<Service> services_;
  std::uint64_t fired_ = 0;
};

/// /proc/self/status field in kB -> MB (0.0 when unavailable).
double proc_status_mb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::stod(line.substr(field.size() + 1)) / 1024.0;
    }
  }
  return 0.0;
}

struct ArmResult {
  std::size_t services = 0;
  std::uint64_t events = 0;
  double seconds = 0.0;
  double events_per_sec = 0.0;
  double rss_mb = 0.0;
  double peak_rss_mb = 0.0;
};

std::uint32_t ticks_for_budget(std::size_t n, std::uint64_t event_budget) {
  // ticks_each * n * 1.5 fired events ~= the budget, floor of 2 so every
  // service exercises the reschedule path at least once.
  return static_cast<std::uint32_t>(std::max<std::uint64_t>(
      2, event_budget / std::max<std::uint64_t>(1, n + n / 2)));
}

ArmResult run_arm(std::size_t n, std::uint64_t event_budget) {
  sim::Simulation s;
  SyntheticFleet fleet(s, n, ticks_for_budget(n, event_budget));
  const auto t0 = std::chrono::steady_clock::now();
  s.run_until(fleet.horizon());
  const auto t1 = std::chrono::steady_clock::now();

  ArmResult r;
  r.services = n;
  r.events = fleet.fired();
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.events_per_sec =
      r.seconds > 0 ? static_cast<double>(r.events) / r.seconds : 0.0;
  r.rss_mb = proc_status_mb("VmRSS:");
  r.peak_rss_mb = proc_status_mb("VmHWM:");
  return r;
}

void write_json(const std::vector<ArmResult>& arms, const char* path) {
  std::ofstream out(path);
  out << "{\n  \"schema\": 4,\n  \"bench\": \"fleet_scale\",\n"
      << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ",\n  \"arms\": [\n";
  for (std::size_t i = 0; i < arms.size(); ++i) {
    const ArmResult& a = arms[i];
    out << "    {\"services\": " << a.services
        << ", \"events\": " << a.events << ", \"seconds\": " << a.seconds
        << ", \"events_per_sec\": " << a.events_per_sec
        << ", \"rss_mb\": " << a.rss_mb << ", \"peak_rss_mb\": "
        << a.peak_rss_mb << "}" << (i + 1 < arms.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

void print_arm(const ArmResult& r) {
  std::printf("%9zu %12" PRIu64 " %9.3f %13.0f %9.1f\n", r.services, r.events,
              r.seconds, r.events_per_sec, r.rss_mb);
}

}  // namespace

int main() {
  const bool smoke = bench::env_runs() <= 1;
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{1000, 10000}
            : std::vector<std::size_t>{1000, 10000, 100000, 1000000};
  const std::uint64_t budget = exec::env_u64("SPOTHOST_FLEET_EVENTS", 2000000);

  std::printf("fleet-scale event core (budget ~%" PRIu64
              " fired events/arm, %u hw threads)%s\n",
              budget, std::thread::hardware_concurrency(),
              smoke ? " [smoke]" : "");
  std::printf("%9s %12s %9s %13s %9s\n", "services", "events", "seconds",
              "events/sec", "rss MB");

  std::vector<ArmResult> arms;
  for (const std::size_t n : sizes) {  // ascending: VmHWM stays per-arm honest
    const ArmResult r = run_arm(n, budget);
    print_arm(r);
    arms.push_back(r);
  }
  write_json(arms, "BENCH_fleet.json");
  std::printf("wrote BENCH_fleet.json (schema 4, %zu arms)\n", arms.size());
  return 0;
}

// Fleet-scale event-core benchmark: how many scheduler events per second the
// simulation core sustains as the fleet grows 1k -> 1M services, serial and
// sharded.
//
// The workload is the fleet pattern distilled: every service keeps a
// periodic hour-tick chain alive (schedule-next-inside-the-callback, the
// MarketWatcher::schedule_hour_tick shape), and every tick schedules a poll
// event of which half are cancelled before firing (the planned-migration
// cancel churn in CloudScheduler). Services are staggered across a few
// hundred launch cohorts but share the billing period, so events arrive in
// synchronized same-millisecond bursts — the shape real fleets produce
// (billing hours align to launch waves, planned migrations to market price
// steps), and the shape the batched trigger fan-out exists for.
//
// The sharded arms run the same per-service pattern on a ShardedSimulation
// with services partitioned across K shard lanes by shard_of_key, plus the
// cross-shard coupling the paper's market structure implies: a global
// "price step" chain every 5 simulated minutes that fans one mailbox
// message out to every shard (the MarketWatcher batch-post shape). Shard
// counts sweep 1/2/4/8; each arm reports the barrier-stall
// fraction (idle window capacity) and per-shard throughput next to the
// aggregate, so the Amdahl term is visible, not inferred.
//
// Output: a human table on stdout plus BENCH_fleet.json (schema 3) in the
// working directory. events_per_sec counts FIRED events against the
// wall-clock time of the run loop (setup excluded); rss_mb samples VmRSS
// while the queue still holds the fleet's pending events, peak_rss_mb is
// the process-wide VmHWM high-water mark (monotone across arms — sizes run
// ascending so each arm's peak is its own). hardware_threads records the
// machine so sharded speedups are read in context: on a 1-core runner the
// sweep measures barrier/merge overhead, not parallelism.
//
// Knobs: SPOTHOST_RUNS=1 selects the CI smoke sizes and a trimmed shard
// sweep; SPOTHOST_FLEET_EVENTS overrides the ~per-arm fired-event budget.
// SPOTHOST_THREADS sizes the shared pool the sharded arms run windows on.
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
#include "simcore/sharded_sim.hpp"
#include "simcore/simulation.hpp"

namespace {

using namespace spothost;

constexpr sim::SimTime kPeriod = sim::kHour;
constexpr sim::SimTime kPulsePeriod = 5 * sim::kMinute;

struct Service {
  sim::Clock* clock = nullptr;  // the service's lane (or the one serial clock)
  std::uint32_t shard = 0;
  std::uint32_t ticks_done = 0;
  sim::EventHandle tick;
  sim::EventHandle poll;
};

// N services running periodic tick chains with poll-and-cancel churn.
// Engine-agnostic: the serial arm maps every service to the one Simulation
// clock; the sharded arm maps service i to shard_of_key(i, K)'s lane.
class SyntheticFleet {
 public:
  // Launch waves: services within a cohort share their tick millisecond,
  // and all cohorts share the billing period, so the bursts persist.
  static constexpr std::size_t kCohorts = 512;

  SyntheticFleet(std::size_t n, std::size_t lanes, std::uint32_t ticks_each)
      : ticks_each_(ticks_each), services_(n), fired_(lanes) {}

  void place(std::size_t i, sim::Clock& clock, std::size_t lane) {
    Service& svc = services_[i];
    svc.clock = &clock;
    svc.shard = static_cast<std::uint32_t>(lane);
    svc.tick = clock.at(1 + cohort(i), [this, i] { on_tick(i); });
  }

  /// One cross-shard pulse delivery (runs on the lane's thread).
  void on_pulse(std::size_t lane) { ++fired_[lane].v; }

  [[nodiscard]] std::uint64_t fired() const noexcept {
    std::uint64_t total = 0;
    for (const auto& lane : fired_) total += lane.v;
    return total;
  }

  [[nodiscard]] sim::SimTime horizon() const noexcept {
    return static_cast<sim::SimTime>(ticks_each_ + 3) * kPeriod;
  }

 private:
  // One counter per lane, cacheline-padded: window callbacks on different
  // lanes must not share a write target.
  struct alignas(64) LaneCount {
    std::uint64_t v = 0;
  };

  static sim::SimTime cohort(std::size_t i) noexcept {
    return static_cast<sim::SimTime>((i * 2654435761u) % kCohorts);
  }

  void on_tick(std::size_t i) {
    Service& svc = services_[i];
    ++fired_[svc.shard].v;
    // Half the polls are cancelled while pending (poll delay exceeds one
    // period, so the previous tick's poll is still live here); the other
    // half fire and count. Deterministic parity, no RNG in the hot loop.
    if (((svc.ticks_done ^ i) & 1u) == 0) svc.poll.cancel();
    // Polls land on the cohort grid shortly after the next tick burst —
    // planned-migration checks align to the same hour/price-step boundaries
    // the ticks do.
    const auto poll_delay = kPeriod + 1 + 2 * cohort(i) +
                            static_cast<sim::SimTime>(i & 1u);
    svc.poll = svc.clock->after(poll_delay, [this, i] {
      Service& done = services_[i];
      ++fired_[done.shard].v;
      done.poll.reset();
    });
    if (++svc.ticks_done < ticks_each_) {
      svc.tick = svc.clock->after(kPeriod, [this, i] { on_tick(i); });
    }
  }

  std::uint32_t ticks_each_;
  std::vector<Service> services_;
  std::vector<LaneCount> fired_;
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
  std::string mode;  // "serial" | "sharded"
  std::size_t services = 0;
  std::size_t shards = 0;  // 0 for the serial engine
  std::uint64_t events = 0;
  double seconds = 0.0;
  double events_per_sec = 0.0;
  double per_shard_events_per_sec = 0.0;
  std::uint64_t windows = 0;
  double barrier_stall = 0.0;
  double rss_mb = 0.0;
  double peak_rss_mb = 0.0;
};

std::uint32_t ticks_for_budget(std::size_t n, std::uint64_t event_budget) {
  // ticks_each * n * 1.5 fired events ~= the budget, floor of 2 so every
  // service exercises the reschedule path at least once.
  return static_cast<std::uint32_t>(std::max<std::uint64_t>(
      2, event_budget / std::max<std::uint64_t>(1, n + n / 2)));
}

ArmResult run_serial_arm(std::size_t n, std::uint64_t event_budget) {
  const std::uint32_t ticks_each = ticks_for_budget(n, event_budget);
  sim::Simulation s;
  SyntheticFleet fleet(n, 1, ticks_each);
  for (std::size_t i = 0; i < n; ++i) fleet.place(i, s, 0);
  const auto t0 = std::chrono::steady_clock::now();
  s.run_until(fleet.horizon());
  const auto t1 = std::chrono::steady_clock::now();

  ArmResult r;
  r.mode = "serial";
  r.services = n;
  r.events = fleet.fired();
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.events_per_sec =
      r.seconds > 0 ? static_cast<double>(r.events) / r.seconds : 0.0;
  r.rss_mb = proc_status_mb("VmRSS:");
  r.peak_rss_mb = proc_status_mb("VmHWM:");
  return r;
}

ArmResult run_sharded_arm(std::size_t n, std::size_t shards,
                          std::uint64_t event_budget) {
  const std::uint32_t ticks_each = ticks_for_budget(n, event_budget);
  sim::ShardedSimulation eng(shards);
  SyntheticFleet fleet(n, shards, ticks_each);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t s = sim::shard_of_key(i, shards);
    fleet.place(i, eng.shard_clock(s), s);
  }
  // The market coupling: a global chain every 5 sim-minutes posting one
  // mailbox message per shard (the MarketWatcher batch fan-out shape).
  // Every pulse is a barrier the windows synchronize on.
  struct Pulser {
    sim::ShardedSimulation* eng;
    SyntheticFleet* fleet;
    std::size_t shards;
    void fire() {
      for (std::size_t s = 0; s < shards; ++s) {
        SyntheticFleet* f = fleet;
        eng->post(s, [f, s] { f->on_pulse(s); });
      }
      eng->after(kPulsePeriod, [this] { fire(); });
    }
  };
  Pulser pulser{&eng, &fleet, shards};
  eng.at(kPulsePeriod, [&pulser] { pulser.fire(); });

  const auto t0 = std::chrono::steady_clock::now();
  eng.run_until(fleet.horizon());
  const auto t1 = std::chrono::steady_clock::now();

  ArmResult r;
  r.mode = "sharded";
  r.services = n;
  r.shards = shards;
  r.events = fleet.fired();
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.events_per_sec =
      r.seconds > 0 ? static_cast<double>(r.events) / r.seconds : 0.0;
  r.per_shard_events_per_sec =
      r.events_per_sec / static_cast<double>(shards);
  const auto stats = eng.stats();
  r.windows = stats.windows;
  r.barrier_stall = stats.barrier_stall(shards);
  r.rss_mb = proc_status_mb("VmRSS:");
  r.peak_rss_mb = proc_status_mb("VmHWM:");
  return r;
}

void write_json(const std::vector<ArmResult>& arms, const char* path) {
  std::ofstream out(path);
  out << "{\n  \"schema\": 3,\n  \"bench\": \"fleet_scale\",\n"
      << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ",\n  \"arms\": [\n";
  for (std::size_t i = 0; i < arms.size(); ++i) {
    const ArmResult& a = arms[i];
    out << "    {\"mode\": \"" << a.mode << "\", \"services\": " << a.services
        << ", \"shards\": " << a.shards
        << ", \"events\": " << a.events << ", \"seconds\": " << a.seconds
        << ", \"events_per_sec\": " << a.events_per_sec
        << ", \"per_shard_events_per_sec\": " << a.per_shard_events_per_sec
        << ", \"windows\": " << a.windows
        << ", \"barrier_stall\": " << a.barrier_stall
        << ", \"rss_mb\": " << a.rss_mb << ", \"peak_rss_mb\": "
        << a.peak_rss_mb << "}" << (i + 1 < arms.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

void print_arm(const ArmResult& r) {
  std::printf("%-7s %9zu %6zu %12" PRIu64 " %9.3f %13.0f %8.2f %9.1f\n",
              r.mode.c_str(), r.services, r.shards, r.events, r.seconds,
              r.events_per_sec, r.barrier_stall, r.rss_mb);
}

}  // namespace

int main() {
  const bool smoke = bench::env_runs() <= 1;
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{1000, 10000}
            : std::vector<std::size_t>{1000, 10000, 100000, 1000000};
  // The shard sweep runs at fleet scale only — small fleets measure barrier
  // overhead, not partitioned throughput.
  const std::vector<std::size_t> shard_sizes =
      smoke ? std::vector<std::size_t>{10000}
            : std::vector<std::size_t>{100000, 1000000};
  // The smoke's sharded arm width follows the SPOTHOST_SHARDS knob (the
  // same one that shards World-based fleet runs), so CI pins the exact
  // configuration it exercises; the full sweep stays fixed.
  const std::size_t smoke_shards =
      std::max<std::uint64_t>(2, exec::env_u64("SPOTHOST_SHARDS", 2));
  const std::vector<std::size_t> shard_counts =
      smoke ? std::vector<std::size_t>{1, smoke_shards}
            : std::vector<std::size_t>{1, 2, 4, 8};
  const std::uint64_t budget = exec::env_u64("SPOTHOST_FLEET_EVENTS", 2000000);

  std::printf("fleet-scale event core (budget ~%" PRIu64
              " fired events/arm, %u hw threads)%s\n",
              budget, std::thread::hardware_concurrency(),
              smoke ? " [smoke]" : "");
  std::printf("%-7s %9s %6s %12s %9s %13s %8s %9s\n", "mode", "services",
              "shards", "events", "seconds", "events/sec", "stall", "rss MB");

  std::vector<ArmResult> arms;
  for (const std::size_t n : sizes) {  // ascending: VmHWM stays per-arm honest
    const ArmResult r = run_serial_arm(n, budget);
    print_arm(r);
    arms.push_back(r);
  }
  for (const std::size_t n : shard_sizes) {
    double base = 0.0;
    for (const std::size_t shards : shard_counts) {
      const ArmResult r = run_sharded_arm(n, shards, budget);
      print_arm(r);
      if (shards == 1) base = r.events_per_sec;
      if (shards > 1 && base > 0) {
        std::printf("%-7s %9zu %6zu %dx-vs-1-shard = %.2fx\n", "", n, shards,
                    static_cast<int>(shards), r.events_per_sec / base);
      }
      arms.push_back(r);
    }
  }
  write_json(arms, "BENCH_fleet.json");
  std::printf("wrote BENCH_fleet.json (schema 3, %zu arms)\n", arms.size());
  return 0;
}

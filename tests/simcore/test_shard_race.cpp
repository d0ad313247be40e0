// ThreadSanitizer stress for the sharded engine: dense parallel windows on
// every pool thread, mailbox fan-out at every barrier, and multiple engines
// sharing one pool concurrently (nested run_batch). Registered in the TSan
// CI job (ShardedSim|ShardRace|RunBatch) — the assertions here are basic
// liveness/count checks; the real oracle is TSan itself.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "exec/thread_pool.hpp"
#include "obs/event.hpp"
#include "obs/sink.hpp"
#include "simcore/sharded_sim.hpp"

namespace spothost::sim {
namespace {

struct CountingSink final : obs::TraceSink {
  std::uint64_t events = 0;
  void on_event(const obs::TraceEvent&) override { ++events; }
};

void emit_one(Clock& clock, std::uint64_t id) {
  obs::Tracer* tracer = clock.tracer();
  if (tracer == nullptr || !tracer->enabled()) return;
  obs::TraceEvent e;
  e.t = clock.now();
  e.instance = id;
  tracer->emit(e);
}

// Dense per-shard work: every service ticks every minute, emits, and spawns
// an occasional zero-delay child; a global pulse every 10 minutes posts one
// mail to every shard. All shards have due work below every barrier, so
// every window runs the full run_batch path on the shared pool.
std::uint64_t hammer(ShardedSimulation& eng, std::size_t shards,
                     SimTime horizon) {
  CountingSink sink;
  obs::Tracer tracer;
  tracer.add_sink(&sink);
  eng.set_tracer(&tracer);

  struct Service {
    Clock* clock;
    std::uint64_t id;
    std::uint64_t ticks = 0;
    void tick() {
      ++ticks;
      emit_one(*clock, id);
      if (ticks % 7 == 0) clock->after(0, [this] { emit_one(*clock, id); });
      clock->after(kMinute, [this] { tick(); });
    }
  };
  constexpr std::size_t kPerShard = 4;
  std::vector<std::unique_ptr<Service>> services;
  for (std::size_t s = 0; s < shards; ++s) {
    for (std::size_t i = 0; i < kPerShard; ++i) {
      auto svc = std::make_unique<Service>();
      svc->clock = &eng.shard_clock(s);
      svc->id = s * kPerShard + i + 1;
      Service* raw = svc.get();
      raw->clock->at(kMinute + static_cast<SimTime>(i), [raw] { raw->tick(); });
      services.push_back(std::move(svc));
    }
  }
  struct Pulser {
    ShardedSimulation* eng;
    std::size_t shards;
    void fire() {
      for (std::size_t s = 0; s < shards; ++s) {
        Clock* cp = &eng->shard_clock(s);
        eng->post(s, [cp] { emit_one(*cp, 0); });
      }
      eng->after(10 * kMinute, [this] { fire(); });
    }
  };
  Pulser pulser{&eng, shards};
  eng.at(10 * kMinute, [&pulser] { pulser.fire(); });
  eng.run_until(horizon);
  eng.set_tracer(nullptr);
  return sink.events;
}

TEST(ShardRace, DenseWindowsOnAllPoolThreads) {
  exec::ThreadPool pool(4);
  constexpr std::size_t kShards = 8;
  ShardedSimulation eng(kShards, &pool);
  const std::uint64_t events = hammer(eng, kShards, 2 * kHour);
  EXPECT_GT(events, 0u);
  EXPECT_GT(eng.stats().windows, 0u);
  // Event count is a pure function of the workload — recompute serially.
  ShardedSimulation serial(kShards, &pool);
  EXPECT_EQ(hammer(serial, kShards, 2 * kHour), events);
}

TEST(ShardRace, ConcurrentDefaultShardCountLookups) {
  // Engines on different driver threads read the SPOTHOST_SHARDS knob
  // concurrently (sweeps construct one World per worker). The oversize
  // value forces every call down the clamp-warning path, whose once-only
  // latch used to be an unsynchronized static bool — TSan flags that
  // design; the std::once_flag one is clean.
  ::setenv("SPOTHOST_SHARDS", "1048576", 1);
  constexpr int kThreads = 8;
  std::vector<std::size_t> seen(kThreads, 0);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&seen, i] { seen[i] = default_shard_count(); });
  }
  for (auto& t : threads) t.join();
  ::unsetenv("SPOTHOST_SHARDS");
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(seen[i], seen[0]);
    EXPECT_GE(seen[i], 1u);
  }
}

TEST(ShardRace, ConcurrentEnginesShareOnePool) {
  // Two driver threads each run their own sharded engine against ONE shared
  // pool: run_batch claims are interleaved arbitrarily, and pool workers
  // execute windows of both engines back to back. Per-engine results must
  // still be independent and deterministic.
  exec::ThreadPool pool(3);
  constexpr std::size_t kShards = 4;
  std::atomic<std::uint64_t> counts[2] = {{0}, {0}};
  std::vector<std::thread> drivers;
  for (int d = 0; d < 2; ++d) {
    drivers.emplace_back([&pool, &counts, d] {
      ShardedSimulation eng(kShards, &pool);
      counts[d] = hammer(eng, kShards, kHour);
    });
  }
  for (auto& t : drivers) t.join();
  EXPECT_GT(counts[0].load(), 0u);
  EXPECT_EQ(counts[0].load(), counts[1].load());
}

}  // namespace
}  // namespace spothost::sim

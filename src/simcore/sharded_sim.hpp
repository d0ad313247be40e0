// ShardedSimulation: multi-core execution of ONE simulation run, with
// bit-identity to the serial engine.
//
// The engine owns K + 1 event lanes: one *global* lane (the engine's own
// Clock — markets, provider, billing, anything with cross-shard reach) and K
// *shard* lanes (per-service work partitioned by shard_of_key). Lanes have
// their own timing wheel (simcore/timing_wheel.hpp), their own clock, and
// their own trace buffer, so between barriers they share no mutable state
// and advance in parallel on the exec::ThreadPool. The run loop alternates:
//
//   window  — every shard drains its mailbox, then pops its own events
//             strictly below the next barrier time, in parallel, buffering
//             traces per lane;  then a serial merge (below) restores the
//             global order;
//   barrier — ALL events at exactly the barrier time (any lane, plus
//             zero-delay children) execute serially on the driving thread
//             in global order. Barrier times are the global lane's event
//             times — price steps, billing ticks, revocation warnings — the
//             only cross-shard couplings, exactly the decomposition the
//             paper's market structure allows.
//
// Bit-identity (the non-negotiable contract) works by *virtual global
// sequence* (vgs) reconstruction. The serial engine orders same-time events
// by schedule order — a single counter. Here every schedule op is assigned
// the value that counter would have had: serial-phase schedules take
// next_vgs_++ directly; window schedules are lane-local and merely logged
// (each lane records its dispatches: time, event, #children, #traces).
// At the merge, a k-way walk over the lane logs in (time, vgs) order —
// which IS the serial dispatch order — assigns children next_vgs_++ exactly
// where the serial run would have, and splices each dispatch's trace slice
// downstream. Induction over barriers gives: vgs == serial sequence, hence
// pop order, trace order, and bytes identical for every shard count,
// including the degenerate K with everything on the global lane (how
// sched::World runs today — see DESIGN.md "Sharded execution" for what may
// move onto shard lanes and why the provider stays global).
//
// Determinism rules for shard-safe callbacks (enforced where cheap):
//  * a window callback on shard k may touch only shard-k state and
//    read-only shared state (e.g. the const-thread-safe MarketTraceSet);
//  * window callbacks schedule/cancel only via their own shard's clock —
//    cross-shard or global-lane scheduling from a window throws;
//  * cross-shard work moves at barriers, via ShardRouter::post (serial
//    phase only; delivery at the head of the next window, in post order —
//    the same order for every K);
//  * fault-injection draws and RNG streams shared across shards are
//    serial-phase only (lane-private streams are fine).
//
// Select it with SPOTHOST_SHARDS=K (validated, clamped to hardware
// concurrency) or Scenario::shards / make_simulation_engine(K). Default is
// 1 = the plain serial Simulation, byte-transparent.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "simcore/engine.hpp"
#include "simcore/shard_router.hpp"
#include "simcore/time.hpp"

namespace spothost::exec {
class ThreadPool;  // exec/thread_pool.hpp — window execution
}

namespace spothost::sim {

class ShardedSimulation final : public Engine, public ShardRouter {
 public:
  /// `shards` >= 1 shard lanes plus the global lane. `pool` runs the
  /// windows (nullptr = exec::ThreadPool::shared()); fewer workers than
  /// shards is fine — the driving thread participates.
  explicit ShardedSimulation(std::size_t shards,
                             exec::ThreadPool* pool = nullptr);
  ~ShardedSimulation() override;

  // Clock (the GLOBAL lane; serial phase only — scheduling here from a
  // parallel window throws std::logic_error).
  [[nodiscard]] SimTime now() const noexcept override;
  EventHandle at(SimTime when, Callback cb) override;
  EventHandle after(SimTime delay, Callback cb) override;
  bool cancel(EventId id) override;
  [[nodiscard]] obs::Tracer* tracer() const noexcept override;
  [[nodiscard]] faults::FaultInjector* fault_injector() const noexcept override;

  // Engine.
  void run_until(SimTime horizon) override;
  [[nodiscard]] std::uint64_t dispatched() const noexcept override;
  [[nodiscard]] std::size_t pending() const override;
  void set_tracer(obs::Tracer* tracer) noexcept override;
  void set_fault_injector(faults::FaultInjector* injector) noexcept override;

  // ShardRouter.
  [[nodiscard]] std::size_t shard_count() const noexcept override;
  [[nodiscard]] Clock& shard_clock(std::size_t shard) override;
  void post(std::size_t shard, Callback cb) override;
  void run_stage(std::vector<Callback> tasks) override;

  /// Execution counters for the bench harness (real time, not sim state —
  /// never feeds back into event order).
  struct Stats {
    std::uint64_t windows = 0;        ///< parallel windows run
    std::uint64_t barrier_steps = 0;  ///< serially executed timestamps
    std::uint64_t merged = 0;         ///< window dispatches merged
    std::uint64_t stages = 0;         ///< parallel run_stage() evaluations
    double window_wall_seconds = 0.0; ///< driver wall time inside windows
    double lane_busy_seconds = 0.0;   ///< summed per-lane work in windows
    /// Fraction of window capacity (K lanes x wall) spent waiting at the
    /// barrier rather than dispatching — the Amdahl term the bench reports.
    [[nodiscard]] double barrier_stall(std::size_t shards) const noexcept {
      const double cap = window_wall_seconds * static_cast<double>(shards);
      return cap > 0.0 ? 1.0 - lane_busy_seconds / cap : 0.0;
    }
  };
  [[nodiscard]] Stats stats() const noexcept;

 private:
  struct Lane;  // defined in sharded_sim.cpp (owns queue/log/trace buffer)

  EventHandle lane_at(Lane& lane, SimTime when, Callback cb);
  bool lane_cancel(Lane& lane, EventId id);
  void assign_vgs(Lane& lane, EventId id, std::uint64_t vgs);
  [[nodiscard]] std::uint64_t vgs_of(const Lane& lane, EventId id) const;
  [[nodiscard]] bool in_window() const noexcept {
    return in_window_.load(std::memory_order_relaxed);
  }
  void run_window_lane(Lane& lane, SimTime barrier);
  void run_windows(SimTime barrier);
  void merge_windows();
  void run_time(SimTime t);

  // lanes_[0] is the global lane; lanes_[1 + k] is shard k. unique_ptr for
  // stable Clock addresses across the vector.
  std::vector<std::unique_ptr<Lane>> lanes_;
  exec::ThreadPool* pool_;
  std::atomic<bool> in_window_{false};
  /// The serial engine's schedule counter, reconstructed. Starts at 1 so 0
  /// can mean "unassigned" in debug assertions.
  std::uint64_t next_vgs_ = 1;
  obs::Tracer* downstream_ = nullptr;
  faults::FaultInjector* injector_ = nullptr;
  Stats stats_{};

  // Serial-phase scratch, reused across barriers.
  struct Staged {
    std::uint64_t vgs;
    EventId id;
    Lane* lane;
    Callback cb;
    bool canceled;
  };
  std::vector<Staged> staged_;
  /// Index of the staged entry whose callback is currently executing.
  /// Entries after it are events the serial engine would not yet have
  /// popped, so cancel must still be able to suppress them (lane_cancel
  /// flags them canceled when the queue no longer knows the id).
  std::size_t staged_exec_i_ = 0;
  std::vector<Lane*> active_;
  friend struct Lane;
};

/// SPOTHOST_SHARDS validated via exec::env_int (0/negative/garbage warn and
/// fall back to 1) and capped at hardware concurrency with a logged clamp.
/// Unset -> 1. Backs make_simulation_engine(0) — see engine.hpp for the
/// factory the layers below the experiment layer use.
[[nodiscard]] std::size_t default_shard_count();

}  // namespace spothost::sim

#include "simcore/sharded_sim.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "exec/env.hpp"
#include "exec/thread_pool.hpp"
#include "obs/shard_buffer.hpp"
#include "obs/sink.hpp"
#include "simcore/event_arena.hpp"
#include "simcore/simulation.hpp"
#include "simcore/timing_wheel.hpp"

namespace spothost::sim {

namespace {

// The lane whose window callback is executing on THIS thread (nullptr in the
// serial phase). What makes "window callbacks schedule only on their own
// shard" enforceable instead of aspirational: the driving thread participates
// in window batches too, so a phase flag alone cannot tell "the barrier
// thread doing serial work" from "the barrier thread running lane 3's task".
thread_local const void* tl_window_lane = nullptr;

struct WindowLaneScope {
  explicit WindowLaneScope(const void* lane) { tl_window_lane = lane; }
  ~WindowLaneScope() { tl_window_lane = nullptr; }
};

// True while THIS thread runs a run_stage() task. Stage tasks are pure
// evaluators (see shard_router.hpp): unlike window callbacks they may not
// even schedule or cancel on their own lane — a stage has no dispatch log
// entry to attribute children to, and vgs assignment is serial-phase state.
thread_local bool tl_stage_task = false;

struct StageTaskScope {
  StageTaskScope() { tl_stage_task = true; }
  ~StageTaskScope() { tl_stage_task = false; }
};

constexpr SimTime kForever = std::numeric_limits<SimTime>::max();

}  // namespace

struct ShardedSimulation::Lane final : public Clock {
  Lane(ShardedSimulation* engine, std::size_t lane_index)
      : owner(engine), index(lane_index) {
    tracer_obj.add_sink(&sink);
  }

  // Clock — delegates to the owner so every phase rule lives in one place.
  [[nodiscard]] SimTime now() const noexcept override { return now_t; }
  EventHandle at(SimTime when, Callback cb) override {
    return owner->lane_at(*this, when, std::move(cb));
  }
  EventHandle after(SimTime delay, Callback cb) override {
    if (delay < 0) {
      throw std::invalid_argument("ShardedSimulation: negative delay");
    }
    return owner->lane_at(*this, now_t + delay, std::move(cb));
  }
  bool cancel(EventId id) override { return owner->lane_cancel(*this, id); }
  [[nodiscard]] obs::Tracer* tracer() const noexcept override {
    if (owner->downstream_ == nullptr) return nullptr;
    // The global lane's traces always go straight downstream (it only runs
    // in the serial phase); shard lanes emit through the routing buffer.
    if (index == 0) return owner->downstream_;
    return &tracer_obj;
  }
  [[nodiscard]] faults::FaultInjector* fault_injector() const noexcept override {
    return owner->injector_;
  }

  struct Mail {
    SimTime time;        // the posting barrier's time
    std::uint64_t vgs;   // assigned at post — mails ARE schedule ops
    Callback cb;
  };
  // One window dispatch. `self` identifies queue events (vgs looked up in
  // `cells` at merge time); mails carry their vgs directly (self == 0).
  struct LogEntry {
    SimTime time;
    EventId self;
    std::uint64_t mail_vgs;
    std::uint32_t children;
    std::uint32_t traces;
  };
  struct VgsCell {
    std::uint32_t gen = 0;
    std::uint64_t vgs = 0;
  };

  ShardedSimulation* owner;
  std::size_t index;  // 0 = global lane, 1 + k = shard k
  TimingWheelQueue queue;
  SimTime now_t = 0;
  std::uint64_t dispatched = 0;
  // vgs of every pending event, indexed by arena slot. Slot reuse is safe:
  // a cell is (re)written in merge order strictly before any read of the new
  // generation, and generations disambiguate in debug builds.
  std::vector<VgsCell> cells;
  std::vector<LogEntry> log;       // this window's dispatches, lane order
  std::vector<EventId> child_ids;  // this window's schedules, schedule order
  std::vector<Mail> mailbox;
  mutable obs::Tracer tracer_obj;
  obs::ShardTraceBuffer sink;
  double busy_seconds = 0.0;
};

ShardedSimulation::ShardedSimulation(std::size_t shards, exec::ThreadPool* pool)
    : pool_(pool != nullptr ? pool : &exec::ThreadPool::shared()) {
  if (shards < 1) {
    throw std::invalid_argument("ShardedSimulation: shards must be >= 1");
  }
  lanes_.reserve(shards + 1);
  for (std::size_t i = 0; i <= shards; ++i) {
    lanes_.push_back(std::make_unique<Lane>(this, i));
  }
}

ShardedSimulation::~ShardedSimulation() = default;

SimTime ShardedSimulation::now() const noexcept { return lanes_[0]->now_t; }

EventHandle ShardedSimulation::at(SimTime when, Callback cb) {
  return lane_at(*lanes_[0], when, std::move(cb));
}

EventHandle ShardedSimulation::after(SimTime delay, Callback cb) {
  if (delay < 0) {
    throw std::invalid_argument("ShardedSimulation: negative delay");
  }
  return lane_at(*lanes_[0], lanes_[0]->now_t + delay, std::move(cb));
}

bool ShardedSimulation::cancel(EventId id) {
  return lane_cancel(*lanes_[0], id);
}

obs::Tracer* ShardedSimulation::tracer() const noexcept { return downstream_; }

faults::FaultInjector* ShardedSimulation::fault_injector() const noexcept {
  return injector_;
}

std::uint64_t ShardedSimulation::dispatched() const noexcept {
  std::uint64_t total = 0;
  for (const auto& lane : lanes_) total += lane->dispatched;
  return total;
}

std::size_t ShardedSimulation::pending() const {
  std::size_t total = 0;
  for (const auto& lane : lanes_) {
    total += lane->queue.size() + lane->mailbox.size();
  }
  return total;
}

void ShardedSimulation::set_tracer(obs::Tracer* tracer) noexcept {
  downstream_ = tracer;
  for (auto& lane : lanes_) lane->sink.set_passthrough(tracer);
}

void ShardedSimulation::set_fault_injector(faults::FaultInjector* injector) noexcept {
  injector_ = injector;
}

std::size_t ShardedSimulation::shard_count() const noexcept {
  return lanes_.size() - 1;
}

Clock& ShardedSimulation::shard_clock(std::size_t shard) {
  if (shard >= shard_count()) {
    throw std::out_of_range("ShardedSimulation::shard_clock: bad shard");
  }
  return *lanes_[1 + shard];
}

void ShardedSimulation::post(std::size_t shard, Callback cb) {
  if (shard >= shard_count()) {
    throw std::out_of_range("ShardedSimulation::post: bad shard");
  }
  if (in_window()) {
    throw std::logic_error(
        "ShardedSimulation::post: mailbox posts are serial-phase only "
        "(post from a barrier, not from a window callback)");
  }
  lanes_[1 + shard]->mailbox.push_back(
      Lane::Mail{lanes_[0]->now_t, next_vgs_++, std::move(cb)});
}

void ShardedSimulation::run_stage(std::vector<Callback> tasks) {
  if (in_window()) {
    throw std::logic_error(
        "ShardedSimulation::run_stage: stages are serial-phase only "
        "(run from a barrier, not from a window callback)");
  }
  if (tasks.size() != shard_count()) {
    throw std::invalid_argument(
        "ShardedSimulation::run_stage: one task slot per shard required");
  }
  active_.clear();
  for (std::size_t k = 0; k < tasks.size(); ++k) {
    if (!tasks[k]) continue;
    Lane& lane = *lanes_[1 + k];
    // Lanes lag the global clock between their own events; align so a stage
    // task reading its shard clock sees the barrier time being evaluated.
    lane.now_t = std::max(lane.now_t, lanes_[0]->now_t);
    lane.sink.set_passthrough(nullptr);  // catch illegal traces via buffered()
    active_.push_back(&lane);
  }
  if (active_.empty()) return;
  ++stats_.stages;
  const auto t0 = std::chrono::steady_clock::now();
  auto run_task = [](Lane& lane, Callback& task) {
    WindowLaneScope scope(&lane);
    StageTaskScope stage;
    const auto s0 = std::chrono::steady_clock::now();
    task();
    lane.busy_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - s0)
            .count();
  };
  // Same phase-flag discipline as run_windows: set even for one active lane
  // so stage legality does not depend on how many shards participate.
  in_window_.store(true, std::memory_order_relaxed);
  try {
    if (active_.size() == 1) {
      Lane& lane = *active_.front();
      run_task(lane, tasks[lane.index - 1]);
    } else {
      std::vector<std::function<void()>> batch;
      batch.reserve(active_.size());
      for (Lane* lane : active_) {
        Callback& task = tasks[lane->index - 1];
        batch.emplace_back([&run_task, lane, &task] { run_task(*lane, task); });
      }
      pool_->run_batch(batch);
    }
  } catch (...) {
    in_window_.store(false, std::memory_order_relaxed);
    throw;  // a throwing stage task leaves scratch state torn; fail the run
  }
  in_window_.store(false, std::memory_order_relaxed);
  stats_.window_wall_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (Lane* lane : active_) {
    const bool traced = lane->sink.buffered() != 0;
    lane->sink.clear_buffered();
    lane->sink.set_passthrough(downstream_);
    if (traced) {
      throw std::logic_error(
          "ShardedSimulation::run_stage: a stage task emitted traces — "
          "stages are pure evaluation and have no merge slot");
    }
  }
  active_.clear();
}

ShardedSimulation::Stats ShardedSimulation::stats() const noexcept {
  Stats s = stats_;
  for (const auto& lane : lanes_) s.lane_busy_seconds += lane->busy_seconds;
  return s;
}

EventHandle ShardedSimulation::lane_at(Lane& lane, SimTime when, Callback cb) {
  if (tl_stage_task) {
    throw std::logic_error(
        "ShardedSimulation: scheduling from a run_stage task (stages are "
        "pure evaluation — schedule from the serial phase afterwards)");
  }
  if (when < lane.now_t) {
    throw std::invalid_argument("ShardedSimulation: scheduling in the past");
  }
  if (in_window()) {
    if (tl_window_lane != &lane) {
      throw std::logic_error(
          lane.index == 0
              ? "ShardedSimulation: global-lane scheduling from a parallel "
                "window (cross-shard work must move via post() at a barrier)"
              : "ShardedSimulation: cross-shard scheduling from a parallel "
                "window (a callback may only schedule on its own shard)");
    }
    const EventId id = lane.queue.schedule(when, std::move(cb));
    lane.child_ids.push_back(id);
    ++lane.log.back().children;
    return EventHandle{&lane, id};
  }
  const EventId id = lane.queue.schedule(when, std::move(cb));
  assign_vgs(lane, id, next_vgs_++);
  return EventHandle{&lane, id};
}

bool ShardedSimulation::lane_cancel(Lane& lane, EventId id) {
  if (tl_stage_task) {
    throw std::logic_error(
        "ShardedSimulation: cancel from a run_stage task (stages are pure "
        "evaluation — cancel from the serial phase afterwards)");
  }
  if (in_window() && tl_window_lane != &lane) {
    throw std::logic_error(
        "ShardedSimulation: cross-shard cancel from a parallel window");
  }
  if (lane.queue.cancel(id)) return true;
  // Barrier step: run_time pops every event due at the barrier time before
  // running any of them, but the serial engine pops one at a time — so a
  // callback canceling a same-tick event that has not yet fired must still
  // suppress it. Staged-but-not-run entries (strictly after staged_exec_i_)
  // are exactly those events; entries at or before it already fired, where
  // the serial cancel fails too. staged_ is empty outside the barrier step.
  for (std::size_t i = staged_exec_i_ + 1; i < staged_.size(); ++i) {
    Staged& s = staged_[i];
    if (s.lane == &lane && s.id == id && !s.canceled) {
      s.canceled = true;
      return true;
    }
  }
  return false;
}

void ShardedSimulation::assign_vgs(Lane& lane, EventId id, std::uint64_t vgs) {
  const std::uint32_t slot = EventArena::slot_of(id);
  if (slot >= lane.cells.size()) lane.cells.resize(slot + 1);
  lane.cells[slot] = Lane::VgsCell{EventArena::gen_of(id), vgs};
}

std::uint64_t ShardedSimulation::vgs_of(const Lane& lane, EventId id) const {
  // Checked unconditionally (this sits on the serial merge path, not the
  // parallel hot loop): an event reaching dispatch with no vgs assigned
  // must fail diagnosably, not reorder events on a garbage sequence number.
  const std::uint32_t slot = EventArena::slot_of(id);
  if (slot >= lane.cells.size() ||
      lane.cells[slot].gen != EventArena::gen_of(id)) {
    throw std::logic_error(
        "ShardedSimulation::vgs_of: cell read before assignment — "
        "merge-order invariant broken");
  }
  return lane.cells[slot].vgs;
}

// One shard's slice of a parallel window: deliver the mailbox (post order —
// mail times precede every remaining queue event), then drain lane events
// strictly below the barrier. Runs on a pool thread (or the driver via
// run_batch participation); touches only this lane.
void ShardedSimulation::run_window_lane(Lane& lane, SimTime barrier) {
  WindowLaneScope scope(&lane);
  const auto t0 = std::chrono::steady_clock::now();
  for (Lane::Mail& mail : lane.mailbox) {
    lane.now_t = mail.time;
    ++lane.dispatched;
    lane.log.push_back(Lane::LogEntry{mail.time, kInvalidEventId, mail.vgs, 0, 0});
    const std::size_t before = lane.sink.buffered();
    mail.cb();
    lane.log.back().traces =
        static_cast<std::uint32_t>(lane.sink.buffered() - before);
  }
  lane.mailbox.clear();
  EventQueue::Fired fired;
  while (lane.queue.pop_due(barrier - 1, fired)) {
    lane.now_t = fired.time;
    ++lane.dispatched;
    lane.log.push_back(Lane::LogEntry{fired.time, fired.id, 0, 0, 0});
    const std::size_t before = lane.sink.buffered();
    fired.callback();
    lane.log.back().traces =
        static_cast<std::uint32_t>(lane.sink.buffered() - before);
  }
  lane.busy_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
}

void ShardedSimulation::run_windows(SimTime barrier) {
  active_.clear();
  for (std::size_t k = 1; k < lanes_.size(); ++k) {
    Lane& lane = *lanes_[k];
    if (!lane.mailbox.empty() ||
        (!lane.queue.empty() && lane.queue.next_time() < barrier)) {
      active_.push_back(&lane);
    }
  }
  if (active_.empty()) return;
  ++stats_.windows;
  const auto t0 = std::chrono::steady_clock::now();
  // Buffer shard traces for the deterministic merge; the global lane never
  // dispatches inside a window, so its passthrough is irrelevant here.
  for (Lane* lane : active_) lane->sink.set_passthrough(nullptr);
  // The phase flag is set even when only one shard has work (the window then
  // runs inline, skipping the pool handshake): the scheduling rules must not
  // depend on how many shards happen to be busy, or a policy bug would throw
  // under one shard count and pass under another.
  in_window_.store(true, std::memory_order_relaxed);
  try {
    if (active_.size() == 1) {
      run_window_lane(*active_.front(), barrier);
    } else {
      std::vector<std::function<void()>> tasks;
      tasks.reserve(active_.size());
      for (Lane* lane : active_) {
        tasks.emplace_back(
            [this, lane, barrier] { run_window_lane(*lane, barrier); });
      }
      pool_->run_batch(tasks);
    }
  } catch (...) {
    in_window_.store(false, std::memory_order_relaxed);
    throw;  // engine state is torn mid-window; the run is unrecoverable
  }
  in_window_.store(false, std::memory_order_relaxed);
  stats_.window_wall_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (Lane* lane : active_) lane->sink.set_passthrough(downstream_);
  merge_windows();
}

// Serial k-way walk over the lane dispatch logs in (time, vgs) order — which
// is exactly the order the serial engine would have dispatched — assigning
// each dispatch's children the next virtual global sequence numbers and
// splicing its trace slice downstream. Per-lane invariant making this a
// plain merge: a log is sorted by (time, vgs), and an entry's vgs is always
// assigned before the entry reaches the head of its lane (its parent, if
// windowed, precedes it in the same lane's log).
void ShardedSimulation::merge_windows() {
  struct Cursor {
    std::size_t log_i = 0;
    std::size_t child_i = 0;
    std::size_t trace_i = 0;
  };
  // Lane 0 never logs; cursor slot kept for index symmetry.
  std::vector<Cursor> cur(lanes_.size());
  for (;;) {
    Lane* best = nullptr;
    std::uint64_t best_vgs = 0;
    SimTime best_time = 0;
    for (std::size_t k = 1; k < lanes_.size(); ++k) {
      Lane& lane = *lanes_[k];
      const Cursor& c = cur[k];
      if (c.log_i >= lane.log.size()) continue;
      const Lane::LogEntry& e = lane.log[c.log_i];
      const std::uint64_t v =
          e.self != kInvalidEventId ? vgs_of(lane, e.self) : e.mail_vgs;
      if (best == nullptr || e.time < best_time ||
          (e.time == best_time && v < best_vgs)) {
        best = &lane;
        best_time = e.time;
        best_vgs = v;
      }
    }
    if (best == nullptr) break;
    Cursor& c = cur[best->index];
    const Lane::LogEntry& e = best->log[c.log_i++];
    ++stats_.merged;
    if (downstream_ != nullptr && e.traces > 0) {
      best->sink.splice_to(*downstream_, c.trace_i, e.traces);
    }
    c.trace_i += e.traces;
    for (std::uint32_t j = 0; j < e.children; ++j) {
      assign_vgs(*best, best->child_ids[c.child_i++], next_vgs_++);
    }
  }
  for (auto& lane : lanes_) {
    lane->log.clear();
    lane->child_ids.clear();
    lane->sink.clear_buffered();
  }
}

// Executes every event at exactly time `t`, across all lanes, serially on
// the driving thread in vgs order. Zero-delay children scheduled during the
// step join later rounds; their vgs is necessarily larger than anything
// already staged, so round order preserves global order.
void ShardedSimulation::run_time(SimTime t) {
  bool any = false;
  for (;;) {
    staged_.clear();
    for (auto& lane_ptr : lanes_) {
      Lane& lane = *lane_ptr;
      EventQueue::Fired fired;
      while (lane.queue.pop_due(t, fired)) {
        staged_.push_back(Staged{vgs_of(lane, fired.id), fired.id, &lane,
                                 std::move(fired.callback), false});
      }
    }
    if (staged_.empty()) break;
    any = true;
    if (staged_.size() > 1) {
      std::sort(staged_.begin(), staged_.end(),
                [](const Staged& a, const Staged& b) { return a.vgs < b.vgs; });
    }
    for (std::size_t i = 0; i < staged_.size(); ++i) {
      staged_exec_i_ = i;
      Staged& s = staged_[i];
      if (s.canceled) continue;  // suppressed by an earlier same-tick event
      s.lane->now_t = t;
      ++s.lane->dispatched;
      s.cb();
    }
  }
  staged_.clear();
  if (any) ++stats_.barrier_steps;
  // Every lane reaches the barrier time — except under the run-forever
  // sentinel, where the contract is "clock stops at the last event".
  if (t == kForever) return;
  for (auto& lane : lanes_) lane->now_t = std::max(lane->now_t, t);
}

void ShardedSimulation::run_until(SimTime horizon) {
  for (;;) {
    // Pending mails are due at their posting time; they force a window
    // before the next barrier (unless the horizon stops short of them).
    bool mails = false;
    for (std::size_t k = 1; k < lanes_.size(); ++k) {
      const auto& box = lanes_[k]->mailbox;
      if (!box.empty() && box.front().time <= horizon) {
        mails = true;
        break;
      }
    }
    SimTime t_shard = kForever;
    for (std::size_t k = 1; k < lanes_.size(); ++k) {
      const auto& queue = lanes_[k]->queue;
      if (!queue.empty()) t_shard = std::min(t_shard, queue.next_time());
    }
    const SimTime t_global =
        lanes_[0]->queue.empty() ? kForever : lanes_[0]->queue.next_time();
    const SimTime t_next = std::min(t_shard, t_global);
    // Done when every queue is drained (t_next is the kForever sentinel —
    // which never compares past a kForever horizon) or past the horizon.
    if (!mails && (t_next == kForever || t_next > horizon)) break;
    // The next barrier: the next global (market) event, horizon-capped.
    const SimTime barrier = std::min(t_global, horizon);
    if (mails || t_shard < barrier) run_windows(barrier);
    run_time(barrier);
  }
  if (horizon != kForever) {
    for (auto& lane : lanes_) lane->now_t = std::max(lane->now_t, horizon);
  } else {
    // run(): the serial engine's single clock stops at the last dispatched
    // event; align every lane to that maximum so now() agrees.
    SimTime last = 0;
    for (const auto& lane : lanes_) last = std::max(last, lane->now_t);
    for (auto& lane : lanes_) lane->now_t = last;
  }
}

std::size_t default_shard_count() {
  const auto hw = static_cast<long long>(
      std::max(1u, std::thread::hardware_concurrency()));
  const long long value = exec::env_int("SPOTHOST_SHARDS", 1, 1, 4096);
  if (value > hw) {
    // Engines are built concurrently from SweepRunner pool threads; the
    // warn-once latch must be a synchronized one, not a plain static bool.
    static std::once_flag warned;
    std::call_once(warned, [value, hw] {
      std::fprintf(stderr,
                   "spothost: clamping SPOTHOST_SHARDS=%lld to hardware "
                   "concurrency %lld\n",
                   value, hw);
    });
    return static_cast<std::size_t>(hw);
  }
  return static_cast<std::size_t>(value);
}

std::unique_ptr<Engine> make_simulation_engine(std::size_t shards) {
  if (shards == 0) shards = default_shard_count();
  if (shards == 1) return std::make_unique<Simulation>();
  return std::make_unique<ShardedSimulation>(shards);
}

}  // namespace spothost::sim

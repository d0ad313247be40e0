// Hierarchical timing wheel: the production EventQueue.
//
// Layout: 6 levels x 64 slots. Level 0 slots are exactly one millisecond
// wide; each level above covers 64x the span of the one below, so the wheel
// as a whole spans 64^6 ms (~2.2 years) from the current time — two orders
// of magnitude past the paper's 30-day horizon. Events beyond the span land
// in a sorted overflow bucket and migrate into the wheel when it drains down
// to them (overflow times are strictly later than every wheel entry, because
// the wheel window is 64^6-aligned).
//
// Placement uses the classic XOR rule: an event at time `when` lives at
// level = position of the highest bit where `when` differs from the wheel's
// current time, slot = `when`'s 6-bit digit at that level. Advancing the
// clock to a higher-level slot cascades its bucket down (each entry
// re-places at a strictly lower level), so by the time a millisecond is due,
// all its events sit in one level-0 bucket. That bucket is drained as a
// batch sorted by global schedule sequence — restoring exact (time, FIFO)
// order, the determinism contract the test-only heap oracle checks it
// against (see event_queue.hpp).
//
// Buckets are contiguous vectors of small {when, seq, id} records rather
// than linked lists: a cascade streams one vector into a handful of others
// without touching the event arena at all, so moving an event down a level
// costs a 24-byte copy instead of a cache miss. The price is lazy
// cancellation on the wheel path — cancel() frees the arena slot (O(1),
// invalidating the id via its generation) and leaves the bucket record
// behind; dead records are dropped when their bucket is drained, and they
// ride cascades at most kLevels-1 times before that. Far-future (overflow)
// and behind-the-frontier (pre) events stay in sorted maps with eager erase.
//
// Costs: schedule, cancel, and pop are O(1) amortised (occupancy bitmaps
// make the next-slot scan two bit instructions per level; each event
// cascades at most kLevels-1 times over its lifetime). This is what lets
// one simulation carry 100k-1M services' periodic hour-tick and poll events
// (see bench/bench_fleet_scale.cpp), where a heap pays O(log n) per
// operation on a million-entry queue.
//
// Requirement (stronger than the base contract, guaranteed by Simulation):
// scheduling is monotone — `when` must be >= the time of the latest pop.
// Violations throw std::invalid_argument.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "simcore/event_arena.hpp"
#include "simcore/event_queue.hpp"

namespace spothost::sim {

class TimingWheelQueue final : public EventQueue {
 public:
  static constexpr int kLevelBits = 6;
  static constexpr int kSlots = 1 << kLevelBits;  // 64
  static constexpr int kLevels = 6;
  /// Span covered by the wheel from the current time; events at or past
  /// cur + span (window-aligned) go to the overflow bucket.
  static constexpr SimTime kSpanMs = SimTime{1}
                                     << (kLevelBits * kLevels);  // ~795 days

  TimingWheelQueue() = default;

  EventId schedule(SimTime when, Callback cb) override;
  bool cancel(EventId id) override;
  [[nodiscard]] bool empty() const override { return arena_.live() == 0; }
  [[nodiscard]] std::size_t size() const override { return arena_.live(); }
  [[nodiscard]] SimTime next_time() const override;
  Fired pop() override;
  bool pop_due(SimTime horizon, Fired& out) override;
  void clear() override;
  /// Events currently parked in the far-future overflow bucket (test hook).
  [[nodiscard]] std::size_t overflow_entries() const noexcept {
    return overflow_.size();
  }

  /// The schedule floor: the time of the latest pop. Scheduling below this
  /// throws (test hook).
  [[nodiscard]] SimTime wheel_time() const noexcept { return floor_; }

  /// Events parked in the between-floor-and-frontier holding area — only
  /// populated by schedules issued after a next_time() peek ran the wheel
  /// ahead, i.e. outside the simulation's dispatch loop (test hook).
  [[nodiscard]] std::size_t pre_entries() const noexcept { return pre_.size(); }

 private:
  // Values of the arena's per-slot loc field (backend scratch byte). Wheel
  // and drain records are cancelled lazily, so they share one value; the
  // sorted maps erase eagerly and need to be told apart.
  enum Loc : std::uint8_t {
    kLocWheel = 0,
    kLocOverflow = 1,
    kLocPre = 2,
  };

  // One pending event as the wheel buckets store it. `when` rides along so
  // cascading re-places the record without reading the arena; `seq` so the
  // due-millisecond FIFO sort runs over the contiguous batch; `id` so the
  // dispatch path can drop records whose event was cancelled (generation
  // mismatch) after they were filed.
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    EventId id;
  };

  // Files an entry into the bucket for its time relative to cur_.
  void file(const Entry& entry);
  // Empties a consumed buffer, releasing its memory when the capacity is
  // burst-sized (see kMaxIdleCapacity in the .cpp).
  static void shed(std::vector<Entry>& v);
  // Finds (level, wheel slot) for a pending time relative to cur_.
  [[nodiscard]] std::pair<int, int> place(SimTime when) const;
  // Advances cur_ (cascading higher-level buckets, pulling overflow when
  // the wheel is empty) until one level-0 bucket is due, then swaps it into
  // drain_ sorted by schedule sequence. Precondition: the wheel or the
  // overflow bucket holds at least one live event.
  void advance_and_drain();
  // Returns the arena slot of the earliest live wheel event, leaving its
  // record at drain_[drain_pos_]. Same precondition as advance_and_drain.
  [[nodiscard]] std::uint32_t ready();

  EventArena arena_;
  std::array<std::uint64_t, kLevels> occupied_{};  // one bit per bucket
  std::array<std::array<std::vector<Entry>, kSlots>, kLevels> buckets_;
  // The wheel frontier. May run ahead of floor_ (a next_time() peek
  // advances it to the next due slot so the scan work is never repeated);
  // schedules landing in [floor_, cur_) go to pre_ instead of the wheel.
  SimTime cur_ = 0;
  // Time of the latest pop: the monotone-schedule bound.
  SimTime floor_ = 0;
  // Far-future events, ordered by (time, seq) so migration preserves FIFO.
  std::map<std::pair<SimTime, std::uint64_t>, EventId> overflow_;
  // Events at times the frontier has already passed (>= floor_, < cur_).
  // Only ever fed by schedules issued between simulation phases — the
  // dispatch loop schedules at/after the event being fired, which is never
  // below the frontier — so this stays tiny; ordered by (time, seq) and
  // merged with the wheel at pop for exact global FIFO.
  std::map<std::pair<SimTime, std::uint64_t>, EventId> pre_;
  // The level-0 bucket currently being dispatched (swapped out wholesale,
  // so batch capacity circulates between the buckets and this buffer),
  // sorted by sequence. Records whose event was cancelled while pending
  // fail the generation check and are skipped.
  std::vector<Entry> drain_;
  std::size_t drain_pos_ = 0;
  // Cascade redistribution buffer (member so its capacity is reused).
  std::vector<Entry> scratch_;
};

}  // namespace spothost::sim

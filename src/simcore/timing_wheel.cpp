#include "simcore/timing_wheel.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace spothost::sim {

namespace {

constexpr std::uint32_t kNoSlot = EventArena::kNoSlot;

// Idle buffers above this capacity are released rather than recycled. A
// whole fleet's periodic burst lands in ONE higher-level bucket per period,
// and the slot it lands in rotates, so letting every bucket keep its
// high-water capacity strands burst-sized allocations across all 64 slots
// of every level (observed: ~5x the heap backend's footprint at 100k
// services). Re-growing a just-released buffer is a warm malloc, amortised
// against streaming the burst itself.
constexpr std::size_t kMaxIdleCapacity = 4096;

// True when `when` falls outside the wheel's 64^6-aligned current window.
constexpr bool past_window(SimTime when, SimTime cur) noexcept {
  return ((static_cast<std::uint64_t>(when) ^ static_cast<std::uint64_t>(cur)) >>
          (TimingWheelQueue::kLevelBits * TimingWheelQueue::kLevels)) != 0;
}

}  // namespace

std::pair<int, int> TimingWheelQueue::place(SimTime when) const {
  const std::uint64_t diff = static_cast<std::uint64_t>(when) ^
                             static_cast<std::uint64_t>(cur_);
  const int level =
      diff == 0 ? 0 : (63 - std::countl_zero(diff)) / kLevelBits;
  const int slot = static_cast<int>(
      (static_cast<std::uint64_t>(when) >> (level * kLevelBits)) & (kSlots - 1));
  return {level, slot};
}

void TimingWheelQueue::shed(std::vector<Entry>& v) {
  if (v.capacity() > kMaxIdleCapacity) {
    std::vector<Entry>().swap(v);
  } else {
    v.clear();
  }
}

void TimingWheelQueue::file(const Entry& entry) {
  const auto [level, ws] = place(entry.when);
  buckets_[static_cast<std::size_t>(level)][static_cast<std::size_t>(ws)]
      .push_back(entry);
  occupied_[static_cast<std::size_t>(level)] |= std::uint64_t{1} << ws;
}

TimingWheelQueue::TimingWheelQueue(EventArena&& arena, SimTime now)
    : arena_(std::move(arena)), cur_(now), floor_(now) {
  arena_.for_each_live([this](std::uint32_t slot) {
    assert(arena_.when(slot) >= cur_);
    enqueue(slot);
  });
  // Slots are visited in slot order, which recycling makes differ from
  // sequence order. Every other bucket is sorted when it comes due, but
  // cur_'s is already the batch that ready() drains: sort it here.
  sort_batch();
}

void TimingWheelQueue::sort_batch() {
  std::vector<Entry>& current = batch();
  std::sort(current.begin(), current.end(),
            [](const Entry& a, const Entry& b) { return a.seq < b.seq; });
}

void TimingWheelQueue::enqueue(std::uint32_t slot) {
  const SimTime when = arena_.when(slot);
  const std::uint64_t seq = arena_.seq(slot);
  const EventId id = arena_.id_at(slot);
  if (when < cur_) {
    // The frontier has run past this time (a peek advanced the wheel); the
    // event is still valid — park it in the holding area, merged at pop.
    pre_.emplace(std::make_pair(when, seq), id);
    arena_.loc(slot) = kLocPre;
  } else if (past_window(when, cur_)) {
    overflow_.emplace(std::make_pair(when, seq), id);
    arena_.loc(slot) = kLocOverflow;
  } else {
    file(Entry{when, seq, id});
    arena_.loc(slot) = kLocWheel;
  }
}

EventId TimingWheelQueue::schedule(SimTime when, Callback&& cb) {
  if (when < floor_) {
    throw std::invalid_argument(
        "TimingWheelQueue::schedule: time precedes the latest pop");
  }
  const EventArena::Alloc alloc = arena_.allocate(when, std::move(cb));
  enqueue(alloc.slot);
  return alloc.id;
}

bool TimingWheelQueue::cancel(EventId id) {
  const std::uint32_t slot = arena_.slot_if_live(id);
  if (slot == kNoSlot) return false;
  switch (arena_.loc(slot)) {
    case kLocOverflow:
      overflow_.erase(std::make_pair(arena_.when(slot), arena_.seq(slot)));
      break;
    case kLocPre:
      pre_.erase(std::make_pair(arena_.when(slot), arena_.seq(slot)));
      break;
    default:
      // Wheel record: cancelled lazily. The generation bump below
      // invalidates the record's id, and the bucket drops it when drained.
      break;
  }
  arena_.release(slot);
  return true;
}

void TimingWheelQueue::advance_and_drain() {
  for (;;) {
    // Level 0: the current slot itself may be due (events at exactly cur_).
    {
      const int cs = static_cast<int>(static_cast<std::uint64_t>(cur_) &
                                      (kSlots - 1));
      const std::uint64_t due = occupied_[0] & (~std::uint64_t{0} << cs);
      if (due != 0) {
        const int ws = std::countr_zero(due);
        cur_ = static_cast<SimTime>(
            (static_cast<std::uint64_t>(cur_) & ~std::uint64_t{kSlots - 1}) |
            static_cast<std::uint64_t>(ws));
        // The bucket becomes the batch, drained where it lies; its bit
        // stays set until ready() has consumed it. Bucket order mixes
        // direct schedules with cascade arrivals; sort by global sequence
        // to restore exact FIFO among this millisecond.
        sort_batch();
        return;
      }
    }
    // Higher levels: strictly beyond the current slot (an event sharing
    // cur_'s digit at a level always lives at a lower level, by the XOR
    // placement rule), lowest occupied level first.
    bool cascaded = false;
    for (int level = 1; level < kLevels; ++level) {
      const int cs = static_cast<int>(
          (static_cast<std::uint64_t>(cur_) >> (level * kLevelBits)) &
          (kSlots - 1));
      const std::uint64_t due =
          cs + 1 >= kSlots ? 0
                           : occupied_[static_cast<std::size_t>(level)] &
                                 (~std::uint64_t{0} << (cs + 1));
      if (due == 0) continue;
      const int ws = std::countr_zero(due);
      // Every lower level is empty and every other bucket is later, so
      // jump the clock to this bucket's earliest record and stream the
      // bucket down in place: that record re-places in level 0 and every
      // other one at a strictly lower level, never back into this bucket.
      // No arena access: the records carry their times. Dead (lazily
      // cancelled) records ride along, may set the clock, and are dropped
      // when their millisecond drains.
      std::vector<Entry>& bucket =
          buckets_[static_cast<std::size_t>(level)][static_cast<std::size_t>(ws)];
      occupied_[static_cast<std::size_t>(level)] &= ~(std::uint64_t{1} << ws);
      SimTime earliest = bucket.front().when;
      for (const Entry& entry : bucket) earliest = std::min(earliest, entry.when);
      cur_ = earliest;
      for (const Entry& entry : bucket) file(entry);
      shed(bucket);
      cascaded = true;
      break;
    }
    if (cascaded) continue;
    // Wheel exhausted: jump to the first overflow event and migrate every
    // overflow entry that now fits the window. Safe because overflow times
    // are strictly later than anything the wheel held.
    assert(!overflow_.empty());
    cur_ = overflow_.begin()->first.first;
    while (!overflow_.empty() &&
           !past_window(overflow_.begin()->first.first, cur_)) {
      const auto& [key, id] = *overflow_.begin();
      file(Entry{key.first, key.second, id});
      arena_.loc(EventArena::slot_of(id)) = kLocWheel;
      overflow_.erase(overflow_.begin());
    }
  }
}

std::uint32_t TimingWheelQueue::ready() {
  for (;;) {
    // By index: a callback scheduling at cur_ may grow the batch.
    std::vector<Entry>& current = batch();
    while (drain_pos_ < current.size()) {
      const std::uint32_t slot = arena_.slot_if_live(current[drain_pos_].id);
      if (slot != kNoSlot) return slot;
      ++drain_pos_;  // cancelled while pending
    }
    shed(current);
    occupied_[0] &= ~(std::uint64_t{1} << (static_cast<std::uint64_t>(cur_) &
                                           (kSlots - 1)));
    drain_pos_ = 0;
    assert(arena_.live() > pre_.size());
    advance_and_drain();
  }
}

SimTime TimingWheelQueue::next_time() const {
  // Logically const: running the wheel forward to the next due slot never
  // changes the observable pop order. Schedules issued after the peek at
  // times the frontier has passed land in pre_ and merge back in at pop, so
  // nothing depends on when the wheel advances — and the advance work is
  // never repeated (mirrors the heap backend's skim()).
  auto* self = const_cast<TimingWheelQueue*>(this);
  SimTime best = std::numeric_limits<SimTime>::max();
  if (arena_.live() > pre_.size()) best = arena_.when(self->ready());
  if (!pre_.empty()) best = std::min(best, pre_.begin()->first.first);
  return best;
}

bool TimingWheelQueue::pop_due(SimTime horizon, Fired& out) {
  std::uint32_t slot = kNoSlot;
  if (arena_.live() > pre_.size()) slot = ready();
  if (!pre_.empty() &&
      (slot == kNoSlot ||
       pre_.begin()->first <
           std::make_pair(arena_.when(slot), arena_.seq(slot)))) {
    // The holding area owns the earliest event (exact (time, seq) order).
    if (pre_.begin()->first.first > horizon) return false;
    slot = EventArena::slot_of(pre_.begin()->second);
    pre_.erase(pre_.begin());
  } else {
    if (slot == kNoSlot || arena_.when(slot) > horizon) return false;
    ++drain_pos_;
  }
  floor_ = arena_.when(slot);
  out.time = floor_;
  out.id = arena_.id_at(slot);
  out.callback = arena_.take(slot);
  arena_.release(slot);
  return true;
}

EventQueue::Fired TimingWheelQueue::pop() {
  Fired fired;
  const bool popped = pop_due(std::numeric_limits<SimTime>::max(), fired);
  assert(popped);  // precondition: !empty()
  (void)popped;
  return fired;
}

void TimingWheelQueue::clear() {
  arena_.clear();
  for (auto& word : occupied_) word = 0;
  for (auto& level : buckets_) {
    for (auto& bucket : level) shed(bucket);
  }
  overflow_.clear();
  pre_.clear();
  drain_pos_ = 0;
  cur_ = 0;
  floor_ = 0;
}

}  // namespace spothost::sim

// The binary-heap EventQueue: the queue every Simulation starts on, and the
// differential-testing oracle for the timing wheel (simcore/timing_wheel.hpp).
// A run holds a handful of live events (a one-service month: 4 to 12), where
// an O(log n) sift over a few contiguous entries beats the wheel's bucket
// filing and cascades; Simulation hands the arena to the wheel once a run
// outgrows kHeapMaxPending (simulation.hpp). The contract suite and the
// lockstep fuzz drive both queues through the EventQueue interface and
// require identical answers.
#pragma once

#include <cstdint>
#include <vector>

#include "simcore/event_arena.hpp"
#include "simcore/event_queue.hpp"

namespace spothost::sim {

/// Events at equal timestamps fire in scheduling order (FIFO) via a global
/// sequence tie-break. Cancellation is O(1) in the arena but lazy in the
/// heap: cancelled entries stay until skimmed on pop. When cancelled entries
/// come to outnumber live ones, the heap is compacted in one O(n) rebuild,
/// bounding memory at ~2x the live count.
class BinaryHeapQueue final : public EventQueue {
 public:
  EventId schedule(SimTime when, Callback&& cb) override;
  bool cancel(EventId id) override;
  [[nodiscard]] bool empty() const override { return arena_.live() == 0; }
  [[nodiscard]] std::size_t size() const override { return arena_.live(); }
  [[nodiscard]] SimTime next_time() const override;
  Fired pop() override;
  bool pop_due(SimTime horizon, Fired& out) override;
  void clear() override;

  /// Total heap entries, live + cancelled-but-not-yet-dropped. Exposed so
  /// tests can assert compaction keeps this bounded relative to size().
  [[nodiscard]] std::size_t heap_entries() const noexcept { return heap_.size(); }

  /// Gives up every pending event: returns the arena (slots, generations,
  /// sequence counter) for another backend to file, and leaves this queue
  /// empty, as if newly built. Ids issued so far are valid only through the
  /// returned arena.
  [[nodiscard]] EventArena take_arena();

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;  // tie-break: FIFO among equal timestamps
    std::uint32_t slot;
    std::uint32_t gen;  // entry is stale once the arena generation moves on
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  [[nodiscard]] bool stale(const Entry& e) const {
    return arena_.gen(e.slot) != e.gen;
  }
  // Pops cancelled entries off the heap top.
  void skim() const;
  // Rebuilds the heap without cancelled entries once they exceed the live
  // count (above a small floor, so tiny queues never pay for a rebuild).
  void compact_if_stale();

  // Max-heap under Later (= earliest event at front), maintained with
  // std::push_heap/pop_heap; a plain vector so compaction can erase stale
  // entries in place. Mutable: skim() drops dead entries from const reads.
  mutable std::vector<Entry> heap_;
  EventArena arena_;
};

}  // namespace spothost::sim

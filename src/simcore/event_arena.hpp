// Dense slab storage for pending events, shared by every queue backend, and
// handed whole from one backend to the next when a Simulation outgrows its
// heap (simulation.hpp): slots, generations and the sequence counter move
// together, so every id issued before the hand-over stays valid.
//
// Events live in one array of fixed-size Slot records indexed by a 32-bit
// slot number; slots are recycled through a free list, and each carries a
// generation counter so a recycled slot invalidates ids issued for its
// previous occupant. An EventId packs (generation << 32 | slot), which buys
// every backend:
//
//   * O(1) cancel — decode, compare generations, done. No hash lookup.
//   * stale-cancel safety — a handle kept past its event's firing simply
//     fails the generation check.
//   * a dispatch path that *moves* the callback out of storage (take()) —
//     sim::Callback is move-only, so copies are impossible by construction.
//     allocate() takes the callback by rvalue reference and take() hands
//     out an rvalue reference, so from the engine's at() to the dispatch
//     loop's Fired record a callback is relocated exactly twice: into its
//     slot, and out of it.
//
// The record is deliberately array-of-structures: time, sequence,
// generation, a backend scratch byte, and the callback sit in ONE record
// (56 bytes with the 32-byte sim::Callback — same size std::function had,
// with 24 inline capture bytes instead of libstdc++'s 16), so scheduling,
// cancelling, or firing an event touches a single cache line. The earlier
// structure-of-arrays layout spread each event over seven vectors — seven
// potential misses per touch — which dominated the event-core profile at
// fleet scale long before algorithmic complexity did.
//
// Generations start at 1 and slots are recycled LIFO (still deterministic:
// recycling order is a pure function of the operation sequence), so no live
// id ever equals kInvalidEventId and ids stay unique per queue lifetime for
// ~2^32 recyclings of a slot.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "simcore/clock.hpp"
#include "simcore/time.hpp"

namespace spothost::sim {

class EventArena {
 public:
  using Callback = sim::Callback;  // simcore/callback.hpp, via clock.hpp

  /// "No slot" marker for index-valued returns and backend link fields.
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  struct Alloc {
    EventId id;
    std::uint32_t slot;
  };

  /// Stores an event and returns its id and slot; `cb` is moved into the
  /// slot. The slot stays stable until release(). The backend scratch byte
  /// (loc) is NOT reset — the owning backend writes it when it files the
  /// slot.
  Alloc allocate(SimTime when, Callback&& cb) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      Slot& s = slots_[slot];
      s.when = when;
      s.seq = next_seq_++;
      s.cb = std::move(cb);
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      Slot& s = slots_.emplace_back();
      s.when = when;
      s.seq = next_seq_++;
      s.gen = 1;
      s.cb = std::move(cb);
    }
    ++live_;
    return Alloc{make_id(slots_[slot].gen, slot), slot};
  }

  /// Decodes `id`; returns its slot if the event is still live, else kNoSlot.
  [[nodiscard]] std::uint32_t slot_if_live(EventId id) const {
    const std::uint32_t slot = slot_of(id);
    if (slot >= slots_.size() || slots_[slot].gen != gen_of(id)) return kNoSlot;
    return slot;
  }

  /// The callback of a live slot as an rvalue, for the dispatch path to
  /// move straight into its Fired record (one relocation, no temporary).
  /// The slot still counts as live until release().
  [[nodiscard]] Callback&& take(std::uint32_t slot) {
    return std::move(slots_[slot].cb);
  }

  /// Frees a live slot: bumps its generation (invalidating outstanding ids),
  /// drops the callback so captured state is destroyed promptly, and
  /// recycles the slot.
  void release(std::uint32_t slot) {
    assert(live_ > 0);
    Slot& s = slots_[slot];
    ++s.gen;
    s.cb = nullptr;
    free_.push_back(slot);
    --live_;
  }

  [[nodiscard]] SimTime when(std::uint32_t slot) const {
    return slots_[slot].when;
  }
  [[nodiscard]] std::uint64_t seq(std::uint32_t slot) const {
    return slots_[slot].seq;
  }
  [[nodiscard]] std::uint32_t gen(std::uint32_t slot) const {
    return slots_[slot].gen;
  }
  [[nodiscard]] EventId id_at(std::uint32_t slot) const {
    return make_id(slots_[slot].gen, slot);
  }

  /// Backend scratch byte (the timing wheel records which structure holds
  /// the event so cancel knows whether an eager erase is needed). Living
  /// inside the record keeps the update on the line allocate() just wrote.
  [[nodiscard]] std::uint8_t& loc(std::uint32_t slot) {
    return slots_[slot].loc;
  }
  [[nodiscard]] std::uint8_t loc(std::uint32_t slot) const {
    return slots_[slot].loc;
  }

  /// Live (allocated, not yet released) events.
  [[nodiscard]] std::size_t live() const noexcept { return live_; }

  /// Total slots ever allocated (live + recyclable). Backends size their
  /// per-slot side tables off this.
  [[nodiscard]] std::size_t slots() const noexcept { return slots_.size(); }

  /// Calls f(slot) for every live slot, in slot order. O(slots): for a
  /// backend taking over another's arena, not for the dispatch path.
  template <class F>
  void for_each_live(F&& f) const {
    std::vector<bool> free(slots_.size());
    for (const std::uint32_t slot : free_) free[slot] = true;
    for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
      if (!free[slot]) f(slot);
    }
  }

  /// Releases everything. Generations survive (bumped for every slot), so
  /// ids issued before clear() still fail validation rather than aliasing.
  void clear() {
    free_.clear();
    for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
      ++slots_[slot].gen;
      slots_[slot].cb = nullptr;
      free_.push_back(slot);
    }
    live_ = 0;
  }

  static constexpr std::uint32_t slot_of(EventId id) noexcept {
    return static_cast<std::uint32_t>(id & 0xffffffffu);
  }
  static constexpr std::uint32_t gen_of(EventId id) noexcept {
    return static_cast<std::uint32_t>(id >> 32);
  }

 private:
  struct Slot {
    SimTime when = 0;
    std::uint64_t seq = 0;  // global FIFO tie-break at equal times
    std::uint32_t gen = 0;
    std::uint8_t loc = 0;   // backend scratch: which structure holds it
    Callback cb;
  };

  static constexpr EventId make_id(std::uint32_t gen, std::uint32_t slot) noexcept {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
};

}  // namespace spothost::sim

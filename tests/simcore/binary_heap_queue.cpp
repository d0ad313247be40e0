#include "binary_heap_queue.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace spothost::sim {

namespace {
// Below this heap size a rebuild costs more than the stale entries do.
constexpr std::size_t kCompactFloor = 64;
}  // namespace

EventId BinaryHeapQueue::schedule(SimTime when, Callback cb) {
  const EventArena::Alloc alloc = arena_.allocate(when, std::move(cb));
  heap_.push_back(
      Entry{when, arena_.seq(alloc.slot), alloc.slot, arena_.gen(alloc.slot)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return alloc.id;
}

bool BinaryHeapQueue::cancel(EventId id) {
  const std::uint32_t slot = arena_.slot_if_live(id);
  if (slot == EventArena::kNoSlot) return false;
  arena_.release(slot);
  compact_if_stale();
  return true;
}

void BinaryHeapQueue::compact_if_stale() {
  if (heap_.size() < kCompactFloor || heap_.size() <= 2 * arena_.live()) return;
  std::erase_if(heap_, [this](const Entry& e) { return stale(e); });
  // Same comparator as the incremental pushes, so pop order — and therefore
  // simulation determinism — is unchanged.
  std::make_heap(heap_.begin(), heap_.end(), Later{});
}

void BinaryHeapQueue::skim() const {
  while (!heap_.empty() && stale(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

SimTime BinaryHeapQueue::next_time() const {
  skim();
  assert(!heap_.empty());
  return heap_.front().time;
}

EventQueue::Fired BinaryHeapQueue::pop() {
  skim();
  assert(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry top = heap_.back();
  heap_.pop_back();
  Fired fired{top.time, arena_.id_at(top.slot), arena_.take(top.slot)};
  arena_.release(top.slot);
  return fired;
}

bool BinaryHeapQueue::pop_due(SimTime horizon, Fired& out) {
  skim();
  if (heap_.empty() || heap_.front().time > horizon) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry top = heap_.back();
  heap_.pop_back();
  out.time = top.time;
  out.id = arena_.id_at(top.slot);
  out.callback = arena_.take(top.slot);
  arena_.release(top.slot);
  return true;
}

void BinaryHeapQueue::clear() {
  heap_.clear();
  arena_.clear();
}

}  // namespace spothost::sim

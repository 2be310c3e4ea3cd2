#include "origami/sim/event_queue.hpp"

#include <algorithm>
#include <utility>

namespace origami::sim {

void EventQueue::schedule_at(SimTime t, std::function<void()> fn) {
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slab_[slot] = std::move(fn);
  }
  // No virtual past: clamp so the event fires at the current instant (after
  // everything already queued for now(), thanks to the sequence tie-break)
  // instead of executing with a stale timestamp.
  heap_.push_back(Key{std::max(t, now_), next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void EventQueue::run_next() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key key = heap_.back();
  heap_.pop_back();
  // Moved out before it runs: the handler may schedule into this very slot
  // or grow the slab under it.
  std::function<void()> fn = std::move(slab_[key.slot]);
  slab_[key.slot] = nullptr;
  free_slots_.push_back(key.slot);
  now_ = key.time;
  ++processed_;
  fn();
}

void EventQueue::run() {
  while (!heap_.empty()) run_next();
}

void EventQueue::run_until(SimTime deadline) {
  while (!heap_.empty() && heap_.front().time <= deadline) run_next();
  if (now_ < deadline) now_ = deadline;
}

void EventQueue::clear() {
  heap_.clear();
  slab_.clear();
  free_slots_.clear();
}

}  // namespace origami::sim

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "origami/sim/time.hpp"

namespace origami::sim {

/// Discrete-event scheduler. Events at equal timestamps run in scheduling
/// order (a monotone sequence number breaks ties), which keeps the
/// simulation fully deterministic.
///
/// The heap orders small `{time, seq, slot}` keys; each callable waits in a
/// slab slot that a free list recycles, so a sift moves 24-byte keys rather
/// than callables. A callable is moved out of its slot before it runs, so
/// a handler may schedule (and grow the slab) freely.
class EventQueue {
 public:
  /// Schedules `fn` at absolute time `t`. Events have no virtual past: a
  /// `t` below now() is clamped to now(), so a buggy caller cannot execute
  /// work at a stale timestamp and silently corrupt the deterministic
  /// ordering (it runs after everything already scheduled for now()).
  void schedule_at(SimTime t, std::function<void()> fn);
  /// Schedules `fn` `delay` after the current time.
  void schedule_after(SimTime delay, std::function<void()> fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::uint64_t processed() const noexcept { return processed_; }

  /// Runs events until the queue is empty.
  void run();
  /// Runs events with time <= `deadline`; the clock ends at
  /// max(now, deadline) even if the queue drains early.
  void run_until(SimTime deadline);
  /// Drops all pending events (used to cut a run off at a horizon).
  void clear();

 private:
  struct Key {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;  ///< index of the callable in `slab_`
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Pops the earliest event, advances the clock to it and runs it.
  void run_next();

  std::vector<Key> heap_;  ///< binary min-heap under `Later`
  std::vector<std::function<void()>> slab_;
  std::vector<std::uint32_t> free_slots_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace origami::sim

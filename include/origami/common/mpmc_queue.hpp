#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace origami::common {

/// Bounded blocking MPMC queue with producer backpressure: `push` blocks
/// while the queue holds `capacity` items, so a fast producer stalls
/// instead of growing memory without bound — the request lanes between the
/// live-replay issuer and the shard-serving threads use this. `close()`
/// wakes everyone, pops drain the remaining items, and a post-close push is
/// rejected (returns false), never silently dropped: a producer racing
/// `close()` must be able to tell that its item never entered the queue,
/// or "every produced item is either consumed or rejected" cannot be
/// audited.
template <typename T>
class BoundedMpmcQueue {
 public:
  explicit BoundedMpmcQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Blocks until there is room (or the queue closes). Returns whether the
  /// item was accepted.
  [[nodiscard]] bool push(T item) {
    {
      std::unique_lock lock(mutex_);
      cv_space_.wait(lock,
                     [&] { return items_.size() < capacity_ || closed_; });
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    cv_item_.notify_one();
    return true;
  }

  /// Non-blocking push; false when full or closed.
  [[nodiscard]] bool try_push(T item) {
    {
      std::lock_guard lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    cv_item_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed and drained.
  std::optional<T> pop() {
    std::optional<T> item;
    {
      std::unique_lock lock(mutex_);
      cv_item_.wait(lock, [&] { return !items_.empty() || closed_; });
      if (items_.empty()) return std::nullopt;
      item = std::move(items_.front());
      items_.pop_front();
    }
    cv_space_.notify_one();
    return item;
  }

  std::optional<T> try_pop() {
    std::optional<T> item;
    {
      std::lock_guard lock(mutex_);
      if (items_.empty()) return std::nullopt;
      item = std::move(items_.front());
      items_.pop_front();
    }
    cv_space_.notify_one();
    return item;
  }

  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    cv_item_.notify_all();
    cv_space_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard lock(mutex_);
    return closed_;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mutex_);
    return items_.size();
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable cv_item_;   // consumers wait for items
  std::condition_variable cv_space_;  // producers wait for room
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace origami::common

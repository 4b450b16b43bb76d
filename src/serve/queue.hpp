// Bounded MPMC queue: the admission-control edge of the detection server.
//
// Producers never block — try_push refuses immediately when the queue is at
// capacity (the server turns that into a kUnavailable Status), so a traffic
// spike degrades into fast rejections instead of unbounded memory growth or
// client hangs. Consumers block in pop(), with a timed variant the
// micro-batcher uses to linger for stragglers.
//
// A held queue (set_hold(true)) keeps items from being popped while still
// accepting pushes up to capacity — tests use this to fill the queue
// deterministically, and operators could use it to fence a hot-swap.
// close() overrides hold and drains: pops continue until empty, then
// return nullopt forever; pushes are refused.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace gea::serve {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Non-blocking admission: false when full or closed (the item is left
  /// untouched in that case so the caller can fail it with a Status).
  bool try_push(T& item) {
    return try_push(item, [] {});
  }

  /// try_push() that calls `on_admit` under the lock once the item is
  /// admitted, before a consumer can pop it: whatever it counts happens
  /// before anything a consumer counts for the item.
  template <typename OnAdmit>
  bool try_push(T& item, OnAdmit&& on_admit) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      on_admit();
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
    return true;
  }

  /// Block until an item is available (and the queue is not held), or the
  /// queue is closed and empty (nullopt: consumer should exit).
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return ready_locked(); });
    return take_locked();
  }

  /// pop() bounded by `wait`; nullopt on timeout as well as on
  /// closed-and-empty. The micro-batcher's straggler linger.
  std::optional<T> pop_for(std::chrono::microseconds wait) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!cv_.wait_for(lock, wait, [this] { return ready_locked(); })) {
      return std::nullopt;
    }
    return take_locked();
  }

  /// Non-blocking bulk take of up to `n` items under one lock acquisition
  /// — the micro-batcher's drain step. Returns fewer (possibly zero) items
  /// when the queue is shallower, held, or empty; never waits.
  std::vector<T> pop_up_to(std::size_t n) {
    std::vector<T> out;
    std::lock_guard<std::mutex> lock(mu_);
    if (hold_ && !closed_) return out;
    while (out.size() < n && !items_.empty()) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
    }
    return out;
  }

  /// While held, pop() blocks even when items are available; pushes still
  /// admit up to capacity. close() overrides a hold.
  void set_hold(bool hold) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      hold_ = hold;
    }
    cv_.notify_all();
  }

  /// Refuse further pushes; wake all consumers. Items already queued are
  /// still popped (drain-on-shutdown, like util::ThreadPool).
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  std::size_t capacity() const { return capacity_; }

 private:
  bool ready_locked() const {
    if (closed_) return true;  // drain or exit
    return !hold_ && !items_.empty();
  }

  std::optional<T> take_locked() {
    if (items_.empty()) return std::nullopt;  // closed and drained
    std::optional<T> item(std::move(items_.front()));
    items_.pop_front();
    return item;
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  std::size_t capacity_;
  bool hold_ = false;
  bool closed_ = false;
};

}  // namespace gea::serve

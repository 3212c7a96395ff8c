// A bounded multi-producer/multi-consumer blocking queue.
//
// This is the handoff primitive between the driver's producers and its lane
// workers: the fixed capacity is what turns a fast producer into
// backpressure (Push blocks while the consumer is behind) instead of
// unbounded memory growth. Close() makes shutdown race-free: pushes fail
// immediately, pops drain whatever is already buffered and then return
// empty, and every blocked thread wakes.
//
// Mutex + condition variables rather than a lock-free ring: the payloads
// here are whole mutation batches (thousands of edges), so handoff cost is
// irrelevant next to the work each item represents.
#ifndef SRC_PARALLEL_BOUNDED_QUEUE_H_
#define SRC_PARALLEL_BOUNDED_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "src/fault/fault_injector.h"

namespace graphbolt {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  // Blocks while the queue is full. Returns false (item untouched) if the
  // queue is or becomes closed before space frees up.
  bool Push(T&& item) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock, [&] { return closed_ || items_.size() < capacity_; });
    if (closed_) {
      return false;
    }
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  // Non-blocking push; returns false (item untouched) when full or closed.
  // An armed FaultSite::kQueueFull makes it report full spuriously — only
  // the non-blocking path, so the kBlock overflow policy stays lossless.
  bool TryPush(T&& item) {
    if (GB_FAULT_POINT(injector_, FaultSite::kQueueFull)) {
      return false;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_ || items_.size() >= capacity_) {
      return false;
    }
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  // Push that never blocks and never fails while open: when the queue is
  // full, the *oldest* buffered item is evicted into *evicted to make room
  // (the kShedOldest overflow policy — fresh data beats stale data under
  // overload). Returns false only when closed (item untouched); *evicted
  // is engaged iff an eviction happened.
  bool PushEvictOldest(T&& item, std::optional<T>* evicted) {
    evicted->reset();
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) {
      return false;
    }
    if (items_.size() >= capacity_) {
      evicted->emplace(std::move(items_.front()));
      items_.pop_front();
    }
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  // Blocks until an item is available; empty only when closed and drained.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    return PopFrontLocked();
  }

  // Non-blocking pop; empty when nothing is buffered.
  std::optional<T> TryPop() {
    std::lock_guard<std::mutex> lock(mutex_);
    return PopFrontLocked();
  }

  // Waits up to `timeout` for an item without taking it: true when one is
  // buffered, false on timeout or once closed and drained (disambiguate
  // with closed()). A consumer that must pop under a lock of its own waits
  // here, then takes that lock and TryPops — another consumer may have
  // taken the item in between.
  template <typename Rep, typename Period>
  bool WaitNonEmptyFor(std::chrono::duration<Rep, Period> timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    return not_empty_.wait_for(lock, timeout, [&] { return closed_ || !items_.empty(); }) &&
           !items_.empty();
  }

  // After Close(), pushes fail and pops drain the remaining items. Wakes
  // every blocked producer and consumer. Idempotent.
  void Close() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  // Reopens a closed queue, discarding anything still buffered — the
  // crash-recovery restart path (StreamDriver::Recover drains survivors
  // with Pop() first, then Resets before starting a fresh worker).
  void Reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    items_.clear();
    closed_ = false;
  }

  // Test-only fault hook (no-op unless compiled with
  // GRAPHBOLT_FAULT_INJECTION=1). Not synchronized: arm before producers
  // start.
  void ArmFaultInjector(FaultInjector* injector) { injector_ = injector; }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  // Open and at capacity: a TryPush would fail for lack of room.
  bool full() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return !closed_ && items_.size() >= capacity_;
  }

  size_t capacity() const { return capacity_; }

 private:
  std::optional<T> PopFrontLocked() {
    if (items_.empty()) {
      return std::nullopt;
    }
    std::optional<T> item(std::move(items_.front()));
    items_.pop_front();
    not_full_.notify_one();
    return item;
  }

  const size_t capacity_;
  FaultInjector* injector_ = nullptr;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace graphbolt

#endif  // SRC_PARALLEL_BOUNDED_QUEUE_H_

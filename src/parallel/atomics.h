// Atomic read-modify-write helpers for types the standard library does not
// cover directly (floating-point add, generic min/max via CAS).
//
// All operations use relaxed ordering: the engines synchronize between BSP
// iterations with barriers (thread-pool joins), so per-cell operations only
// need atomicity, not ordering.
#ifndef SRC_PARALLEL_ATOMICS_H_
#define SRC_PARALLEL_ATOMICS_H_

#include <atomic>
#include <type_traits>

namespace graphbolt {

// Atomically `*target += delta` for any arithmetic type. Uses native
// fetch_add for integers and a CAS loop for floating point.
template <typename T>
void AtomicAdd(T* target, T delta) {
  static_assert(std::is_arithmetic_v<T>);
  auto* cell = reinterpret_cast<std::atomic<T>*>(target);
  if constexpr (std::is_integral_v<T>) {
    cell->fetch_add(delta, std::memory_order_relaxed);
  } else {
    T observed = cell->load(std::memory_order_relaxed);
    while (!cell->compare_exchange_weak(observed, observed + delta,
                                        std::memory_order_relaxed)) {
    }
  }
}

// Atomic relaxed load of a cell the helpers above mutate concurrently. A
// plain read racing an atomic CAS on the same location is a data race even
// when a torn value would be self-healing — pair every concurrent reader
// with this.
template <typename T>
T AtomicLoad(const T* target) {
  static_assert(std::is_arithmetic_v<T>);
  return reinterpret_cast<const std::atomic<T>*>(target)->load(std::memory_order_relaxed);
}

// Atomically `*target = min(*target, candidate)`. Returns true if the
// candidate became the new minimum (used to claim frontier insertion).
template <typename T>
bool AtomicMin(T* target, T candidate) {
  auto* cell = reinterpret_cast<std::atomic<T>*>(target);
  T observed = cell->load(std::memory_order_relaxed);
  while (candidate < observed) {
    if (cell->compare_exchange_weak(observed, candidate,
                                    std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

// Atomically `*target = max(*target, candidate)`. Returns true on update.
template <typename T>
bool AtomicMax(T* target, T candidate) {
  auto* cell = reinterpret_cast<std::atomic<T>*>(target);
  T observed = cell->load(std::memory_order_relaxed);
  while (observed < candidate) {
    if (cell->compare_exchange_weak(observed, candidate,
                                    std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

}  // namespace graphbolt

#endif  // SRC_PARALLEL_ATOMICS_H_

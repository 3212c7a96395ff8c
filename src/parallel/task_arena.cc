#include "src/parallel/task_arena.h"

#include <algorithm>

namespace graphbolt {


namespace {

// Persistent workers may not occupy the whole slot table: external threads
// (main, StreamDriver worker, test producers) need room to attach.
constexpr size_t kMaxWorkers = TaskArena::kMaxSlots - 16;

}  // namespace

TaskArena& TaskArena::Instance() {
  static TaskArena arena;
  return arena;
}

TaskArena::TaskArena() {
  const size_t hw = std::max<size_t>(1, std::thread::hardware_concurrency());
  ResizeLocked(std::min(hw, kMaxWorkers));
}

TaskArena::~TaskArena() { StopWorkersLocked(); }

void TaskArena::SetNumThreads(size_t num_threads) {
  num_threads = std::min(std::max<size_t>(1, num_threads), kMaxWorkers);
  if (InParallelRegion()) {
    // The old pool deadlocked here (the rebuild joined workers that
    // were waiting on the very loop the caller was inside). Surface the
    // contract violation instead.
    GB_DCHECK(false) << "SetNumThreads called from inside a parallel region";
    GB_LOG(kWarning) << "SetNumThreads(" << num_threads
                     << ") ignored: called from inside a parallel region";
    return;
  }
  TaskArena& arena = Instance();
  // Exclusive side of the root-region guard: waits for every in-flight
  // region to finish and blocks new ones, so no thread can be executing
  // (or forking into) a deque while the worker set is swapped. Instance()
  // references stay valid throughout — the arena is resized, not replaced.
  std::unique_lock<std::shared_mutex> lock(arena.resize_mu_);
  if (arena.num_threads() == num_threads) {
    return;
  }
  arena.StopWorkersLocked();
  arena.ResizeLocked(num_threads);
}

void TaskArena::ResizeLocked(size_t num_threads) {
  num_threads_.store(num_threads, std::memory_order_release);
  const size_t spawn = num_threads - 1;
  workers_.reserve(spawn);
  for (size_t i = 0; i < spawn; ++i) {
    arena_internal::WorkerSlot* slot = ClaimSlot();
    GB_CHECK(slot != nullptr) << "arena slot table exhausted while spawning workers";
    workers_.emplace_back([this, slot] { WorkerLoop(slot); });
  }
}

void TaskArena::StopWorkersLocked() {
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    shutdown_.store(true, std::memory_order_release);
  }
  sleep_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
  workers_.clear();
  shutdown_.store(false, std::memory_order_release);
}

void TaskArena::WorkerLoop(arena_internal::WorkerSlot* slot) {
  tls_slot_ = slot;
  steal_seed_ = static_cast<uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) | 1u);
  for (;;) {
    arena_internal::Task* task = PopLocal(slot);
    for (int round = 0; task == nullptr && round < 4; ++round) {
      task = PopPriority();  // drain the lane before random steals
      if (task == nullptr) {
        task = TrySteal(slot);
      }
      if (task == nullptr && queued_.load(std::memory_order_acquire) > 0) {
        std::this_thread::yield();  // work exists; a sweep just raced
        round = -1;
      }
    }
    if (task != nullptr) {
      ExecuteTask(task);
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mu_);
    if (shutdown_.load(std::memory_order_acquire)) {
      break;
    }
    sleepers_.fetch_add(1);
    sleep_cv_.wait(lock, [this] {
      return shutdown_.load(std::memory_order_acquire) || queued_.load() > 0;
    });
    sleepers_.fetch_sub(1, std::memory_order_release);
    if (shutdown_.load(std::memory_order_acquire)) {
      break;
    }
  }
  // Regions drain before a resize, so the deque hands back empty.
  GB_DCHECK(slot->deque.Empty()) << "worker retired with queued tasks";
  tls_slot_ = nullptr;
  ReleaseSlot(slot);
}

arena_internal::WorkerSlot* TaskArena::ClaimSlot() {
  for (size_t i = 0; i < kMaxSlots; ++i) {
    bool expected = false;
    if (slots_[i].active.compare_exchange_strong(expected, true,
                                                 std::memory_order_acquire)) {
      return &slots_[i];
    }
  }
  return nullptr;
}

void TaskArena::ReleaseSlot(arena_internal::WorkerSlot* slot) {
  GB_DCHECK(slot->deque.Empty()) << "slot released with queued tasks";
  slot->active.store(false, std::memory_order_release);
}

arena_internal::Task* TaskArena::TrySteal(arena_internal::WorkerSlot* self) {
  uint32_t seed = steal_seed_;
  seed = seed * 1664525u + 1013904223u;  // LCG: cheap per-sweep start rotation
  steal_seed_ = seed;
  const size_t start = seed % kMaxSlots;
  for (size_t i = 0; i < kMaxSlots; ++i) {
    arena_internal::WorkerSlot* victim = &slots_[(start + i) % kMaxSlots];
    if (victim == self) {
      continue;
    }
    arena_internal::Task* task = victim->deque.Steal();
    if (task != nullptr) {
      queued_.fetch_sub(1, std::memory_order_relaxed);
      self->steals.fetch_add(1, std::memory_order_relaxed);
      return task;
    }
  }
  return nullptr;
}

ArenaCounters TaskArena::counters() const {
  ArenaCounters totals;
  totals.inline_runs = inline_runs_.load(std::memory_order_relaxed);
  totals.tasks_priority = priority_pushes_.load(std::memory_order_relaxed);
  for (const arena_internal::WorkerSlot& slot : slots_) {
    totals.tasks_forked += slot.forks.load(std::memory_order_relaxed);
    totals.tasks_stolen += slot.steals.load(std::memory_order_relaxed);
  }
  return totals;
}

}  // namespace graphbolt

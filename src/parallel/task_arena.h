// Work-stealing task arena: the parallel runtime under every loop in the
// repository.
//
// The previous runtime (a single-job thread pool) ran one blocked-range
// loop at a time and executed nested parallel calls inline, which
// load-balances poorly on the two workloads this codebase actually has:
// skewed per-vertex splice work (hub vertices in a power-law graph) and
// ragged frontier maps whose chunk costs differ by orders of magnitude.
// The arena replaces it with the classic work-stealing design:
//
//   - One WorkerSlot per participating thread, each owning a Chase-Lev
//     deque (owner pushes/pops the bottom without locks; idle threads
//     steal from the top with a CAS). The implementation follows Le et
//     al., "Correct and Efficient Work-Stealing for Weakly Ordered Memory
//     Models" (PPoPP'13), with seq_cst on the top/bottom accesses that
//     paper fences (strictly stronger, and expressed as atomics so TSan
//     models the synchronization).
//   - TaskGroup: the fork-join primitive. Run() forks a closure into the
//     calling thread's deque; Wait() helps (pop own deque, then steal)
//     until every forked task has finished. Nesting is real: a worker
//     inside a parallel region forks into its own deque, so inner loops
//     of a skewed outer loop become stealable work instead of serial
//     tail latency.
//   - ParallelFor/ParallelForChunks (parallel_for.h) use lazy binary
//     splitting on top of TaskGroup: a range forks its upper half only
//     when the owner's deque is empty (i.e. thieves have taken
//     everything, or nothing was ever pushed), so an uncontended loop
//     degenerates to a near-serial sweep with O(log(n/grain)) forks while
//     a contended or skewed loop keeps splitting down to `grain`.
//   - Sleep/wake: idle workers block on a condition variable keyed on the
//     exact count of queued tasks; group waiters additionally wake on
//     their group's completion. Fork-side notifies are lock-free unless a
//     sleeper is registered.
//
// The arena is a process-wide singleton that is resized in place
// (SetNumThreads joins the old workers and spawns new ones) rather than
// replaced, so references handed out by Instance() are never invalidated —
// that was the rebuild race in the old pool. Resizing from inside a
// parallel region is a programming error: it GB_DCHECK-fails in debug
// builds and is ignored with a warning in release builds (the old pool
// deadlocked).
//
// With num_threads() == 1 every primitive runs inline on the caller, which
// keeps single-core benchmarking honest (this matches the old pool).
#ifndef SRC_PARALLEL_TASK_ARENA_H_
#define SRC_PARALLEL_TASK_ARENA_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/util/logging.h"

namespace graphbolt {

class TaskGroup;

// Cumulative scheduler counters since process start (monotone; snapshot
// before/after a region and subtract to attribute work to it). These feed
// the scheduler block of EngineStats.
struct ArenaCounters {
  uint64_t tasks_forked = 0;    // closures pushed into a deque
  uint64_t tasks_stolen = 0;    // deque pops that crossed threads
  uint64_t inline_runs = 0;     // loops/forks executed serially on the caller
  uint64_t tasks_priority = 0;  // closures pushed into the priority lane
};

namespace arena_internal {

// A forked unit of work. Concrete tasks embed their closure (ClosureTask
// below); `run` both executes and destroys the task, then signals its
// group — no std::function, no shared ownership.
struct Task {
  void (*run)(Task*) = nullptr;
};

// Chase-Lev work-stealing deque of Task*. Owner-only Push/Pop at the
// bottom, thief Steal at the top. Buffers grow geometrically; retired
// buffers are kept until destruction so a thief holding a stale buffer
// pointer never reads freed memory.
class WorkStealingDeque {
 public:
  WorkStealingDeque() : buffer_(new Buffer(kInitialCapacity)) {}

  ~WorkStealingDeque() {
    Buffer* buf = buffer_.load(std::memory_order_relaxed);
    while (buf != nullptr) {
      Buffer* prev = buf->retired_prev;
      delete buf;
      buf = prev;
    }
  }

  WorkStealingDeque(const WorkStealingDeque&) = delete;
  WorkStealingDeque& operator=(const WorkStealingDeque&) = delete;

  bool Empty() const {
    return bottom_.load(std::memory_order_relaxed) <=
           top_.load(std::memory_order_relaxed);
  }

  // Owner only.
  void Push(Task* task) {
    const int64_t b = bottom_.load(std::memory_order_relaxed);
    const int64_t t = top_.load(std::memory_order_acquire);
    Buffer* buf = buffer_.load(std::memory_order_relaxed);
    if (b - t >= static_cast<int64_t>(buf->capacity)) {
      buf = Grow(buf, t, b);
    }
    buf->Put(b, task);
    bottom_.store(b + 1, std::memory_order_seq_cst);
  }

  // Owner only. Returns nullptr when empty (or when a thief won the race
  // for the last entry).
  Task* Pop() {
    const int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Buffer* buf = buffer_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_seq_cst);
    int64_t t = top_.load(std::memory_order_seq_cst);
    if (t > b) {
      // Already empty; restore bottom.
      bottom_.store(b + 1, std::memory_order_relaxed);
      return nullptr;
    }
    Task* task = buf->Get(b);
    if (t == b) {
      // Last entry: race the thieves for it via top.
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        task = nullptr;  // a thief got it
      }
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return task;
  }

  // Any thread. Returns nullptr when empty or the race was lost.
  Task* Steal() {
    int64_t t = top_.load(std::memory_order_seq_cst);
    const int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) {
      return nullptr;
    }
    Buffer* buf = buffer_.load(std::memory_order_acquire);
    Task* task = buf->Get(t);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return nullptr;  // lost to the owner's Pop or another thief
    }
    return task;
  }

 private:
  static constexpr size_t kInitialCapacity = 256;  // power of two

  struct Buffer {
    explicit Buffer(size_t cap)
        : capacity(cap), mask(cap - 1), cells(new std::atomic<Task*>[cap]) {}
    ~Buffer() { delete[] cells; }

    // Cell handoff is release/acquire so the task's fields (written before
    // Push) are visible to the thread that ends up executing it.
    void Put(int64_t i, Task* task) {
      cells[static_cast<size_t>(i) & mask].store(task, std::memory_order_release);
    }
    Task* Get(int64_t i) const {
      return cells[static_cast<size_t>(i) & mask].load(std::memory_order_acquire);
    }

    const size_t capacity;
    const size_t mask;
    std::atomic<Task*>* const cells;
    Buffer* retired_prev = nullptr;  // chain of outgrown buffers
  };

  // Owner only: double the buffer, copying live entries. The old buffer is
  // chained, not freed — a concurrent thief may still read it (its stale
  // entries are protected by the top CAS).
  Buffer* Grow(Buffer* old, int64_t t, int64_t b) {
    Buffer* bigger = new Buffer(old->capacity * 2);
    for (int64_t i = t; i < b; ++i) {
      bigger->Put(i, old->Get(i));
    }
    bigger->retired_prev = old;
    buffer_.store(bigger, std::memory_order_release);
    return bigger;
  }

  std::atomic<int64_t> top_{0};
  std::atomic<int64_t> bottom_{0};
  std::atomic<Buffer*> buffer_;
};

// One per participating thread: persistent workers hold one for their
// lifetime; external threads (the main thread, the StreamDriver worker,
// test producers) claim one for the duration of a root parallel region.
struct alignas(64) WorkerSlot {
  WorkStealingDeque deque;
  std::atomic<bool> active{false};
  std::atomic<uint64_t> forks{0};
  std::atomic<uint64_t> steals{0};
};

}  // namespace arena_internal

class TaskArena {
 public:
  // Fixed slot table: up to kNumWorkerSlots persistent workers plus
  // concurrently attached external threads. Attachment beyond the table
  // falls back to inline execution (correct, just serial).
  static constexpr size_t kMaxSlots = 64;

  // The process-wide arena. Created on first use with hardware
  // concurrency. The returned reference is valid for the process lifetime:
  // SetNumThreads resizes this object in place, never replaces it.
  static TaskArena& Instance();

  // Resizes the arena to `num_threads` total participants (num_threads - 1
  // persistent workers; the thread that opens a root region is the last).
  // Waits for in-flight root regions to drain, and blocks new ones while
  // the worker set is swapped. Calling from inside a parallel region is a
  // programming error: GB_DCHECK in debug, warn-and-ignore in release
  // (the old pool deadlocked here).
  static void SetNumThreads(size_t num_threads);

  // True while the calling thread is inside a task or owns a root region.
  static bool InParallelRegion() { return RegionDepth() > 0; }

  size_t num_threads() const { return num_threads_.load(std::memory_order_acquire); }

  ArenaCounters counters() const;

  void CountInlineRun() { inline_runs_.fetch_add(1, std::memory_order_relaxed); }

  // True when forking would be useful for the calling thread right now:
  // it is attached, the arena is parallel, and its deque has been drained
  // (by thieves or by itself). The lazy-binary-splitting trigger.
  bool ShouldSplit() const {
    const arena_internal::WorkerSlot* slot = TlsSlot();
    return slot != nullptr && slot->deque.Empty() && num_threads() > 1;
  }

 private:
  friend class TaskGroup;

  // Single point of access to the calling thread's slot / region state (the
  // thread_locals below): keeps every read by-value so call sites can't
  // accidentally cache a reference across an attach/detach.
  static arena_internal::WorkerSlot* TlsSlot() { return tls_slot_; }
  static void SetTlsSlot(arena_internal::WorkerSlot* slot) { tls_slot_ = slot; }
  static int RegionDepth() { return region_depth_; }
  static void AdjustRegionDepth(int delta) { region_depth_ += delta; }

  TaskArena();
  ~TaskArena();

  TaskArena(const TaskArena&) = delete;
  TaskArena& operator=(const TaskArena&) = delete;

  void ResizeLocked(size_t num_threads);
  void StopWorkersLocked();
  void WorkerLoop(arena_internal::WorkerSlot* slot);

  // Claims a free slot for the calling thread (nullptr when the table is
  // full). Pairs with ReleaseSlot.
  arena_internal::WorkerSlot* ClaimSlot();
  void ReleaseSlot(arena_internal::WorkerSlot* slot);

  // Executes a task with the region depth maintained.
  static void ExecuteTask(arena_internal::Task* task) {
    AdjustRegionDepth(1);
    task->run(task);
    AdjustRegionDepth(-1);
  }

  // Pops one task from the calling thread's own deque; nullptr if empty.
  arena_internal::Task* PopLocal(arena_internal::WorkerSlot* slot) {
    arena_internal::Task* task = slot->deque.Pop();
    if (task != nullptr) {
      queued_.fetch_sub(1, std::memory_order_relaxed);
    }
    return task;
  }

  // One randomized sweep over every slot; nullptr when nothing was
  // stealable. The caller decides how often to retry before sleeping.
  arena_internal::Task* TrySteal(arena_internal::WorkerSlot* self);

  // Push + bookkeeping + wakeup, from TaskGroup::Run.
  void OnPush(arena_internal::WorkerSlot* slot, arena_internal::Task* task) {
    slot->deque.Push(task);
    slot->forks.fetch_add(1, std::memory_order_relaxed);
    queued_.fetch_add(1);
    NotifyPush();
  }

  // Wakes one sleeper for a task just counted in queued_. A sleeper checks
  // queued_ under sleep_mu_ and then blocks; a notify sent between the two
  // would be lost and leave it asleep beside the queued task, so the
  // notifier takes sleep_mu_ first. queued_ and sleepers_ are a Dekker
  // pair (each side writes one and reads the other), hence seq_cst.
  void NotifyPush() {
    if (sleepers_.load() > 0) {
      std::lock_guard<std::mutex> lock(sleep_mu_);
      sleep_cv_.notify_one();
    }
  }

  // ----- Priority lane -------------------------------------------------------
  // A single shared max-heap next to the per-thread deques, for work whose
  // execution order matters (async delta propagation drains high-impact
  // deltas first). Deliberately not a deque: priority tasks are few and
  // coarse (one per chunk of vertices), so one mutex is cheaper than a
  // concurrent heap — and the BSP deques stay untouched. Workers and group
  // waiters drain the lane after their own deque but *before* stealing, so
  // a queued high-priority chunk preempts random steals.
  void OnPushPriority(double priority, arena_internal::Task* task) {
    {
      std::lock_guard<std::mutex> lock(priority_mu_);
      priority_lane_.push_back({priority, task});
      std::push_heap(priority_lane_.begin(), priority_lane_.end(), PriorityBefore);
    }
    priority_pushes_.fetch_add(1, std::memory_order_relaxed);
    queued_.fetch_add(1);
    NotifyPush();
  }

  // Pops the highest-priority queued task; nullptr when the lane is empty.
  arena_internal::Task* PopPriority() {
    std::lock_guard<std::mutex> lock(priority_mu_);
    if (priority_lane_.empty()) {
      return nullptr;
    }
    std::pop_heap(priority_lane_.begin(), priority_lane_.end(), PriorityBefore);
    arena_internal::Task* task = priority_lane_.back().task;
    priority_lane_.pop_back();
    queued_.fetch_sub(1, std::memory_order_relaxed);
    return task;
  }

  // Blocks the calling group-waiter until new work is queued or the group
  // completes. `pending` is the group's pending counter.
  void WaitForGroupOrWork(const std::atomic<size_t>& pending) {
    std::unique_lock<std::mutex> lock(sleep_mu_);
    sleepers_.fetch_add(1);
    sleep_cv_.wait(lock, [&] {
      return queued_.load() > 0 || pending.load(std::memory_order_acquire) == 0;
    });
    sleepers_.fetch_sub(1, std::memory_order_release);
  }

  // Wakes every sleeper (group completion can satisfy any waiter's
  // predicate, so notify_one is not enough).
  void NotifyCompletion() {
    if (sleepers_.load(std::memory_order_acquire) > 0) {
      std::lock_guard<std::mutex> lock(sleep_mu_);
      sleep_cv_.notify_all();
    }
  }

  // Root-region guard: shared side taken by every root TaskGroup, unique
  // side by SetNumThreads. This is what makes the resize race-free: the
  // worker set cannot be swapped while any thread is inside a region.
  std::shared_mutex resize_mu_;

  std::atomic<size_t> num_threads_{1};
  std::vector<std::thread> workers_;
  arena_internal::WorkerSlot slots_[kMaxSlots];

  // Exact count of queued (pushed, not yet taken) tasks across all deques;
  // the sleep predicate.
  std::atomic<int64_t> queued_{0};
  std::atomic<size_t> sleepers_{0};
  std::atomic<bool> shutdown_{false};
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;

  std::atomic<uint64_t> inline_runs_{0};

  // Priority lane state. `queued_` counts lane entries too, so the sleep
  // predicate and the steal-retry loops see them without new plumbing.
  struct PriorityEntry {
    double priority;
    arena_internal::Task* task;
  };
  static bool PriorityBefore(const PriorityEntry& a, const PriorityEntry& b) {
    return a.priority < b.priority;  // max-heap on priority
  }
  std::mutex priority_mu_;
  std::vector<PriorityEntry> priority_lane_;
  std::atomic<uint64_t> priority_pushes_{0};

  // constinit + inline: the constant initializer is visible in every TU, so
  // the compiler emits direct TLS accesses instead of routing other-TU reads
  // through a lazy-init TLS wrapper function. That wrapper is what GCC's
  // -fsanitize=null instruments into bogus "load of null pointer" reports
  // (compiler-generated, so no_sanitize attributes cannot reach it).
  static constinit inline thread_local arena_internal::WorkerSlot* tls_slot_ = nullptr;
  static constinit inline thread_local uint32_t steal_seed_ = 0;
  static constinit inline thread_local int region_depth_ = 0;
};

// Fork-join task group. Create one, Run() any number of closures (from the
// creating thread or from inside tasks of the same region — lazy binary
// splitting forks from whichever thread is executing the range), then
// Wait(). The destructor waits too, so early returns cannot leak tasks.
//
// A TaskGroup constructed outside any region opens a *root region*: it
// attaches the thread to an arena slot and holds the resize guard until
// destruction. Nested groups reuse the enclosing attachment and are cheap
// (two thread-local reads).
class TaskGroup {
 public:
  TaskGroup() : arena_(TaskArena::Instance()) {
    if (TaskArena::TlsSlot() == nullptr && arena_.num_threads() > 1) {
      // Root region: block resizes, claim a slot, mark the region.
      region_lock_ = std::shared_lock<std::shared_mutex>(arena_.resize_mu_);
      slot_ = arena_.ClaimSlot();
      if (slot_ != nullptr) {
        TaskArena::SetTlsSlot(slot_);
      } else {
        region_lock_.unlock();  // table full: run inline, don't block resize
      }
      TaskArena::AdjustRegionDepth(1);
      owns_region_ = true;
    }
  }

  ~TaskGroup() {
    Wait();
    if (owns_region_) {
      if (slot_ != nullptr) {
        DrainOwnDeque();
        TaskArena::SetTlsSlot(nullptr);
        arena_.ReleaseSlot(slot_);
      }
      TaskArena::AdjustRegionDepth(-1);
    }
  }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  // Forks `fn` to run asynchronously within this group. Falls back to
  // executing inline when the arena is serial or the calling thread has no
  // slot. `fn` must stay callable until Wait() returns (the usual pattern:
  // capture locals of a frame that outlives the group).
  template <typename Fn>
  void Run(Fn&& fn) {
    arena_internal::WorkerSlot* slot = TaskArena::TlsSlot();
    if (slot == nullptr || arena_.num_threads() == 1) {
      arena_.CountInlineRun();
      TaskArena::AdjustRegionDepth(1);
      fn();
      TaskArena::AdjustRegionDepth(-1);
      return;
    }
    using Closure = ClosureTask<std::decay_t<Fn>>;
    pending_.fetch_add(1, std::memory_order_relaxed);
    arena_.OnPush(slot, new Closure(std::forward<Fn>(fn), this));
  }

  // Forks `fn` into the arena's shared priority lane: among queued priority
  // tasks, higher `priority` runs first (deque work and steals are
  // interleaved as usual — the lane orders the lane, it does not starve the
  // deques). Same lifetime contract as Run().
  template <typename Fn>
  void RunPriority(double priority, Fn&& fn) {
    arena_internal::WorkerSlot* slot = TaskArena::TlsSlot();
    if (slot == nullptr || arena_.num_threads() == 1) {
      arena_.CountInlineRun();
      TaskArena::AdjustRegionDepth(1);
      fn();
      TaskArena::AdjustRegionDepth(-1);
      return;
    }
    using Closure = ClosureTask<std::decay_t<Fn>>;
    pending_.fetch_add(1, std::memory_order_relaxed);
    arena_.OnPushPriority(priority, new Closure(std::forward<Fn>(fn), this));
  }

  // Helps execute work (own deque first, then stealing) until every task
  // forked into this group has completed.
  void Wait() {
    if (pending_.load(std::memory_order_acquire) == 0) {
      return;
    }
    arena_internal::WorkerSlot* slot = TaskArena::TlsSlot();
    while (pending_.load(std::memory_order_acquire) > 0) {
      arena_internal::Task* task =
          slot != nullptr ? arena_.PopLocal(slot) : nullptr;
      if (task == nullptr) {
        task = arena_.PopPriority();
      }
      if (task == nullptr && slot != nullptr) {
        task = arena_.TrySteal(slot);
      }
      if (task != nullptr) {
        TaskArena::ExecuteTask(task);
        continue;
      }
      // Nothing runnable here: the group's remaining tasks are executing
      // on other threads. Spin briefly for fast joins, then block until
      // new work appears or the group completes.
      for (int spin = 0; spin < 64; ++spin) {
        if (pending_.load(std::memory_order_acquire) == 0) {
          return;
        }
        if (queued_hint() > 0) {
          break;
        }
        std::this_thread::yield();
      }
      if (pending_.load(std::memory_order_acquire) > 0 && queued_hint() == 0) {
        arena_.WaitForGroupOrWork(pending_);
      }
    }
  }

 private:
  friend class TaskArena;

  template <typename Fn>
  struct ClosureTask : arena_internal::Task {
    ClosureTask(Fn f, TaskGroup* g) : fn(std::move(f)), group(g) {
      run = &ClosureTask::Invoke;
    }
    static void Invoke(arena_internal::Task* base) {
      auto* self = static_cast<ClosureTask*>(base);
      TaskGroup* group = self->group;
      self->fn();
      delete self;  // destroy before signaling: the waiter may unwind the
                    // stack the closure captured from
      group->OnTaskFinished();
    }
    Fn fn;
    TaskGroup* group;
  };

  void OnTaskFinished() {
    // The decrement releases the waiter: once pending_ hits zero, Wait()
    // returns and the group (and its stack frame) may be gone. Copy the
    // arena reference out of `this` first.
    TaskArena& arena = arena_;
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      arena.NotifyCompletion();
    }
  }

  int64_t queued_hint() const {
    return arena_.queued_.load(std::memory_order_acquire);
  }

  // Executes leftover tasks in the thread's own deque before the slot is
  // released. Leftovers belong to *other* groups (this group's tasks are
  // all done once Wait returned): a stolen task executed here may have
  // forked children that nobody popped yet. Running them is both correct
  // and required — a released slot must hand back an empty deque.
  void DrainOwnDeque() {
    arena_internal::Task* task;
    while ((task = arena_.PopLocal(slot_)) != nullptr) {
      TaskArena::ExecuteTask(task);
    }
  }

  TaskArena& arena_;
  std::atomic<size_t> pending_{0};
  std::shared_lock<std::shared_mutex> region_lock_;
  arena_internal::WorkerSlot* slot_ = nullptr;
  bool owns_region_ = false;
};

}  // namespace graphbolt

#endif  // SRC_PARALLEL_TASK_ARENA_H_

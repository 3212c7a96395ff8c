// Scheduler-level tests for the work-stealing TaskArena: the Chase-Lev
// deque protocol, fork-join TaskGroup semantics, nested parallelism, and
// the SetNumThreads resize contract the single-job pool it replaced got wrong.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/parallel/parallel_for.h"
#include "src/parallel/task_arena.h"

namespace graphbolt {
namespace {

using arena_internal::Task;
using arena_internal::WorkStealingDeque;

struct CountingTask : Task {
  explicit CountingTask(std::atomic<int>* c) : counter(c) {
    run = [](Task* t) { static_cast<CountingTask*>(t)->counter->fetch_add(1); };
  }
  std::atomic<int>* counter;
};

TEST(WorkStealingDeque, OwnerPopIsLifo) {
  WorkStealingDeque deque;
  std::atomic<int> counter{0};
  CountingTask a(&counter), b(&counter), c(&counter);
  deque.Push(&a);
  deque.Push(&b);
  deque.Push(&c);
  EXPECT_EQ(deque.Pop(), &c);
  EXPECT_EQ(deque.Pop(), &b);
  EXPECT_EQ(deque.Pop(), &a);
  EXPECT_EQ(deque.Pop(), nullptr);
  EXPECT_TRUE(deque.Empty());
}

TEST(WorkStealingDeque, StealTakesOldestFirst) {
  WorkStealingDeque deque;
  std::atomic<int> counter{0};
  CountingTask a(&counter), b(&counter);
  deque.Push(&a);
  deque.Push(&b);
  EXPECT_EQ(deque.Steal(), &a);  // thieves take the top (FIFO end)
  EXPECT_EQ(deque.Pop(), &b);    // owner keeps the bottom (LIFO end)
  EXPECT_EQ(deque.Steal(), nullptr);
}

TEST(WorkStealingDeque, GrowsPastInitialCapacity) {
  WorkStealingDeque deque;
  std::atomic<int> counter{0};
  const int n = 1000;  // > kInitialCapacity (256): forces two Grow calls
  std::vector<CountingTask> tasks(n, CountingTask(&counter));
  for (auto& task : tasks) {
    deque.Push(&task);
  }
  int popped = 0;
  while (deque.Pop() != nullptr) {
    ++popped;
  }
  EXPECT_EQ(popped, n);
}

TEST(WorkStealingDeque, ConcurrentStealersEachTaskTakenOnce) {
  // One owner pushes and pops while four thieves hammer Steal: every task
  // must be taken exactly once across all six exit paths. Run under TSan
  // (ctest -L parallel in build-tsan) this doubles as the deque's memory-
  // model check.
  WorkStealingDeque deque;
  constexpr int kTasks = 20000;
  std::vector<std::atomic<uint8_t>> taken(kTasks);
  struct IndexTask : Task {
    std::atomic<uint8_t>* cell = nullptr;
  };
  std::vector<IndexTask> tasks(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    tasks[i].cell = &taken[i];
  }
  std::atomic<bool> done{false};
  std::atomic<int> consumed{0};
  auto consume = [&consumed](Task* task) {
    if (task != nullptr) {
      static_cast<IndexTask*>(task)->cell->fetch_add(1);
      consumed.fetch_add(1);
    }
  };
  std::vector<std::thread> thieves;
  for (int t = 0; t < 4; ++t) {
    thieves.emplace_back([&] {
      while (!done.load()) {
        consume(deque.Steal());
      }
      consume(deque.Steal());  // final sweep
    });
  }
  for (int i = 0; i < kTasks; ++i) {
    deque.Push(&tasks[i]);
    if ((i & 7) == 0) {
      consume(deque.Pop());  // owner competes for the bottom
    }
  }
  while (consumed.load() < kTasks) {
    consume(deque.Pop());
    if (deque.Empty() && consumed.load() < kTasks) {
      std::this_thread::yield();  // thieves hold the rest mid-CAS
    }
  }
  done.store(true);
  for (auto& thief : thieves) {
    thief.join();
  }
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(taken[i].load(), 1u) << "task " << i;
  }
}

TEST(TaskGroup, ForkJoinRunsEveryClosure) {
  TaskArena::SetNumThreads(4);
  std::atomic<int> ran{0};
  {
    TaskGroup group;
    for (int i = 0; i < 100; ++i) {
      group.Run([&ran] { ran.fetch_add(1); });
    }
    group.Wait();
    EXPECT_EQ(ran.load(), 100);
  }
  TaskArena::SetNumThreads(1);
}

TEST(TaskGroup, SerialArenaRunsInline) {
  TaskArena::SetNumThreads(1);
  const ArenaCounters before = TaskArena::Instance().counters();
  int ran = 0;  // non-atomic: inline execution means no concurrency
  TaskGroup group;
  group.Run([&ran] { ++ran; });
  group.Wait();
  EXPECT_EQ(ran, 1);
  const ArenaCounters after = TaskArena::Instance().counters();
  EXPECT_GT(after.inline_runs, before.inline_runs);
}

TEST(TaskGroup, NestedGroupsJoinInnerBeforeOuter) {
  TaskArena::SetNumThreads(4);
  std::atomic<int> inner_total{0};
  std::atomic<int> outer_done{0};
  {
    TaskGroup outer;
    for (int i = 0; i < 8; ++i) {
      outer.Run([&] {
        TaskGroup inner;
        for (int j = 0; j < 8; ++j) {
          inner.Run([&inner_total] { inner_total.fetch_add(1); });
        }
        inner.Wait();
        // Inner join complete: all 8 of *this* group's closures ran.
        outer_done.fetch_add(1);
      });
    }
    outer.Wait();
  }
  EXPECT_EQ(inner_total.load(), 64);
  EXPECT_EQ(outer_done.load(), 8);
  TaskArena::SetNumThreads(1);
}

TEST(TaskArena, InParallelRegionReflectsTaskContext) {
  TaskArena::SetNumThreads(2);
  EXPECT_FALSE(TaskArena::InParallelRegion());
  std::atomic<bool> saw_region{false};
  ParallelFor(0, 32, [&saw_region](size_t) {
    if (TaskArena::InParallelRegion()) {
      saw_region.store(true);
    }
  }, /*grain=*/1);
  EXPECT_TRUE(saw_region.load());
  EXPECT_FALSE(TaskArena::InParallelRegion());
  TaskArena::SetNumThreads(1);
}

TEST(TaskArena, SetNumThreadsWhileLoopsRunOnOtherThreads) {
  // The single-job pool's rebuild race: SetNumThreads deleted the pool while
  // another thread's loop was using it. The arena resizes behind the root-
  // region guard, so concurrent loops and resizes interleave safely.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> loops{0};
  std::vector<std::thread> runners;
  for (int t = 0; t < 2; ++t) {
    runners.emplace_back([&] {
      while (!stop.load()) {
        std::atomic<int> count{0};
        ParallelFor(0, 256, [&count](size_t) { count.fetch_add(1); }, /*grain=*/8);
        ASSERT_EQ(count.load(), 256);
        loops.fetch_add(1);
      }
    });
  }
  for (int round = 0; round < 20; ++round) {
    TaskArena::SetNumThreads(1 + round % 4);
  }
  stop.store(true);
  for (auto& runner : runners) {
    runner.join();
  }
  EXPECT_GT(loops.load(), 0u);
  TaskArena::SetNumThreads(1);
}

// ----- Priority lane (async delta rounds; see INTERNALS §12) -----------------

TEST(PriorityLane, RunPriorityExecutesAllAndCounts) {
  TaskArena::SetNumThreads(4);
  const ArenaCounters before = TaskArena::Instance().counters();
  std::atomic<int> ran{0};
  {
    TaskGroup group;
    for (int i = 0; i < 64; ++i) {
      group.RunPriority(static_cast<double>(i % 7), [&ran] { ran.fetch_add(1); });
    }
    group.Wait();
  }
  EXPECT_EQ(ran.load(), 64);
  const ArenaCounters after = TaskArena::Instance().counters();
  EXPECT_EQ(after.tasks_priority - before.tasks_priority, 64u);
  TaskArena::SetNumThreads(1);
}

TEST(PriorityLane, SerialArenaRunsInline) {
  TaskArena::SetNumThreads(1);
  const ArenaCounters before = TaskArena::Instance().counters();
  int ran = 0;  // non-atomic: inline execution means no concurrency
  TaskGroup group;
  group.RunPriority(3.0, [&ran] { ++ran; });
  group.Wait();
  EXPECT_EQ(ran, 1);
  const ArenaCounters after = TaskArena::Instance().counters();
  EXPECT_EQ(after.tasks_priority, before.tasks_priority);
  EXPECT_GT(after.inline_runs, before.inline_runs);
}

// Deterministic drain-order check. Every persistent worker is first parked
// inside a spinning blocker, so when the group waiter (the main thread)
// starts popping, it is the *only* drainer: the lane's max-heap contract
// says it must observe the priorities in strictly descending order. The
// lowest-priority task — executed last — releases the blockers so Wait()
// can join the group.
TEST(PriorityLane, GroupWaiterDrainsHighestPriorityFirst) {
  TaskArena::SetNumThreads(4);
  const size_t workers = TaskArena::Instance().num_threads() - 1;
  ASSERT_GE(workers, 1u);
  std::atomic<size_t> started{0};
  std::atomic<bool> release{false};
  std::vector<double> order;
  std::mutex order_mu;
  const std::vector<double> priorities = {1.0, 9.0, 3.0, 7.0, 5.0, 2.0, 8.0};
  {
    TaskGroup group;  // root region: attaches this thread to a slot
    for (size_t w = 0; w < workers; ++w) {
      group.Run([&] {
        started.fetch_add(1);
        while (!release.load()) {
          std::this_thread::yield();
        }
      });
    }
    // One blocker per persistent worker: when all have started, every
    // worker is parked and this thread's deque is empty.
    for (int i = 0; i < 100000 && started.load() < workers; ++i) {
      std::this_thread::yield();
    }
    if (started.load() != workers) {
      release.store(true);  // let the blockers finish: fail, don't hang the join
    }
    ASSERT_EQ(started.load(), workers);
    for (const double p : priorities) {
      group.RunPriority(p, [&, p] {
        std::lock_guard<std::mutex> lock(order_mu);
        order.push_back(p);
        if (order.size() == priorities.size()) {
          release.store(true);
        }
      });
    }
    group.Wait();
  }
  ASSERT_EQ(order.size(), priorities.size());
  std::vector<double> want = priorities;
  std::sort(want.begin(), want.end(), std::greater<double>());
  EXPECT_EQ(order, want);
  TaskArena::SetNumThreads(1);
}

TEST(TaskArena, CountersAdvanceWithForkedWork) {
  TaskArena::SetNumThreads(4);
  const ArenaCounters before = TaskArena::Instance().counters();
  std::atomic<uint64_t> sum{0};
  ParallelFor(0, 4096, [&sum](size_t i) { sum.fetch_add(i); }, /*grain=*/1);
  const ArenaCounters after = TaskArena::Instance().counters();
  EXPECT_EQ(sum.load(), 4095ull * 4096 / 2);
  EXPECT_GT(after.tasks_forked, before.tasks_forked);
  TaskArena::SetNumThreads(1);
}

}  // namespace
}  // namespace graphbolt

// Unit tests for the parallel runtime: atomics, the TaskArena-backed loop
// primitives, reductions, and the worker-count independence of dense
// refinement. Scheduler-level tests (deque protocol, fork-join, stealing)
// live in task_arena_test.cc.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "src/algorithms/pagerank.h"
#include "src/core/graphbolt_engine.h"
#include "src/graph/generators.h"
#include "src/parallel/atomics.h"
#include "src/parallel/parallel_for.h"
#include "src/parallel/reducer.h"
#include "src/parallel/task_arena.h"
#include "src/parallel/thread_pool.h"
#include "src/stream/update_stream.h"

namespace graphbolt {
namespace {

TEST(Atomics, AddInteger) {
  int64_t value = 10;
  AtomicAdd(&value, int64_t{32});
  EXPECT_EQ(value, 42);
}

TEST(Atomics, AddDouble) {
  double value = 1.5;
  AtomicAdd(&value, 2.25);
  EXPECT_DOUBLE_EQ(value, 3.75);
}

TEST(Atomics, MultiplyAndDivideRoundTrip) {
  double value = 3.0;
  AtomicMultiply(&value, 4.0);
  EXPECT_DOUBLE_EQ(value, 12.0);
  AtomicDivide(&value, 4.0);
  EXPECT_DOUBLE_EQ(value, 3.0);
}

TEST(Atomics, MinUpdatesOnlyDownward) {
  double value = 10.0;
  EXPECT_TRUE(AtomicMin(&value, 5.0));
  EXPECT_DOUBLE_EQ(value, 5.0);
  EXPECT_FALSE(AtomicMin(&value, 7.0));
  EXPECT_DOUBLE_EQ(value, 5.0);
}

TEST(Atomics, MaxUpdatesOnlyUpward) {
  int value = 3;
  EXPECT_TRUE(AtomicMax(&value, 9));
  EXPECT_EQ(value, 9);
  EXPECT_FALSE(AtomicMax(&value, 4));
  EXPECT_EQ(value, 9);
}

TEST(Atomics, CasSucceedsAndFails) {
  int value = 5;
  EXPECT_TRUE(AtomicCas(&value, 5, 6));
  EXPECT_EQ(value, 6);
  EXPECT_FALSE(AtomicCas(&value, 5, 7));
  EXPECT_EQ(value, 6);
}

TEST(Atomics, ConcurrentDoubleAddIsExactUnderReordering) {
  // Adding 1.0 a million times from several threads: CAS-loop adds must not
  // lose updates (1.0 increments are exactly representable).
  double value = 0.0;
  ParallelFor(0, 100000, [&value](size_t) { AtomicAdd(&value, 1.0); }, /*grain=*/64);
  EXPECT_DOUBLE_EQ(value, 100000.0);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(10000);
  ParallelFor(0, hits.size(), [&hits](size_t i) { hits[i].fetch_add(1); }, /*grain=*/16);
  for (const auto& hit : hits) {
    EXPECT_EQ(hit.load(), 1);
  }
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  bool ran = false;
  ParallelFor(5, 5, [&ran](size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ChunkedCoversRange) {
  std::atomic<uint64_t> sum{0};
  ParallelForChunks(0, 1000, [&sum](size_t lo, size_t hi) {
    uint64_t local = 0;
    for (size_t i = lo; i < hi; ++i) {
      local += i;
    }
    sum.fetch_add(local);
  }, /*grain=*/7);
  EXPECT_EQ(sum.load(), 999ull * 1000 / 2);
}

TEST(ThreadPool, NestedParallelForCoversRange) {
  std::atomic<int> total{0};
  ParallelFor(0, 8, [&total](size_t) {
    ParallelFor(0, 8, [&total](size_t) { total.fetch_add(1); }, /*grain=*/1);
  }, /*grain=*/1);
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, NestedParallelForActuallyRunsOnMultipleWorkers) {
  // The old runtime executed nested loops inline on the calling worker;
  // the arena forks them into the worker's deque where thieves pick them
  // up. Assert real nested parallelism with a rendezvous: a single outer
  // task runs an inner loop whose bodies wait (bounded) until two of them
  // are inside *the same inner loop* concurrently — impossible if the
  // inner loop is serialized onto one worker.
  ThreadPool::SetNumThreads(4);
  std::atomic<int> inside{0};
  std::atomic<bool> met{false};
  std::mutex ids_mu;
  std::set<std::thread::id> ids;
  ParallelFor(0, 1, [&](size_t) {
    ParallelFor(0, 4, [&](size_t) {
      {
        std::lock_guard<std::mutex> lock(ids_mu);
        ids.insert(std::this_thread::get_id());
      }
      inside.fetch_add(1);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(2);
      while (!met.load() && std::chrono::steady_clock::now() < deadline) {
        if (inside.load() >= 2) {
          met.store(true);
          break;
        }
        std::this_thread::yield();
      }
      inside.fetch_sub(1);
    }, /*grain=*/1);
  }, /*grain=*/1);
  EXPECT_TRUE(met.load()) << "no two workers were ever inside the nested loop";
  EXPECT_GE(ids.size(), 2u);
  ThreadPool::SetNumThreads(1);
}

TEST(ThreadPool, SkewedWorkIsBalancedByStealing) {
  // Power-law chunk costs (the hub-vertex profile): item cost ~ 1/(i+1),
  // so chunk 0 dominates. Lazy binary splitting must leave the cheap tail
  // available for thieves while the owner grinds the head — observable as
  // arena steal traffic (and, of course, a correct sum). The head chunk
  // yields until a steal lands so the test also holds on one hardware
  // core, where thieves only run when the grinding thread gives up its
  // quantum: while nothing has been stolen yet, the splitter's own deque
  // still holds the forked upper half, so a thief always has a target.
  ThreadPool::SetNumThreads(4);
  const ArenaCounters before = TaskArena::Instance().counters();
  std::atomic<uint64_t> sum{0};
  ParallelFor(0, 256, [&sum, &before](size_t i) {
    if (i == 0) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (TaskArena::Instance().counters().tasks_stolen == before.tasks_stolen &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    }
    const size_t reps = 200000 / (i + 1);
    uint64_t local = 0;
    for (size_t r = 0; r < reps; ++r) {
      local += r ^ i;
    }
    sum.fetch_add(local);
  }, /*grain=*/1);
  EXPECT_GT(sum.load(), 0u);
  const ArenaCounters after = TaskArena::Instance().counters();
  EXPECT_GT(after.tasks_stolen, before.tasks_stolen)
      << "skewed loop never produced a cross-worker steal";
  ThreadPool::SetNumThreads(1);
}

TEST(ThreadPool, SetNumThreadsRebuilds) {
  ThreadPool::SetNumThreads(2);
  EXPECT_EQ(ThreadPool::Instance().num_threads(), 2u);
  std::atomic<int> count{0};
  ParallelFor(0, 100, [&count](size_t) { count.fetch_add(1); }, /*grain=*/4);
  EXPECT_EQ(count.load(), 100);
  ThreadPool::SetNumThreads(1);
  EXPECT_EQ(ThreadPool::Instance().num_threads(), 1u);
  count = 0;
  ParallelFor(0, 100, [&count](size_t) { count.fetch_add(1); }, /*grain=*/4);
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ManySmallLoopsDoNotDeadlock) {
  ThreadPool::SetNumThreads(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> count{0};
    ParallelFor(0, 64, [&count](size_t) { count.fetch_add(1); }, /*grain=*/1);
    ASSERT_EQ(count.load(), 64);
  }
  ThreadPool::SetNumThreads(1);
}

TEST(Reducer, SumMatchesSerial) {
  const uint64_t total = ParallelReduceSum<uint64_t>(0, 100000, [](size_t i) { return i; });
  EXPECT_EQ(total, 99999ull * 100000 / 2);
}

TEST(Reducer, SumWithInit) {
  const int total = ParallelReduceSum<int>(0, 10, [](size_t) { return 1; }, 100);
  EXPECT_EQ(total, 110);
}

TEST(Reducer, MaxFindsMaximum) {
  std::vector<int> data(5000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<int>((i * 2654435761u) % 100000);
  }
  const int expected = *std::max_element(data.begin(), data.end());
  const int found =
      ParallelReduceMax<int>(0, data.size(), [&data](size_t i) { return data[i]; }, -1);
  EXPECT_EQ(found, expected);
}

TEST(Reducer, MaxOfEmptyRangeReturnsInit) {
  EXPECT_EQ(ParallelReduceMax<int>(3, 3, [](size_t) { return 7; }, -5), -5);
}

TEST(Reducer, ExclusivePrefixSum) {
  std::vector<uint64_t> values{3, 1, 4, 1, 5};
  const uint64_t total = ExclusivePrefixSum(values);
  EXPECT_EQ(total, 14u);
  EXPECT_EQ(values, (std::vector<uint64_t>{0, 3, 4, 8, 9}));
}

TEST(Reducer, ExclusivePrefixSumEmpty) {
  std::vector<int> values;
  EXPECT_EQ(ExclusivePrefixSum(values), 0);
}

TEST(Reducer, ParallelPrefixSumMatchesSerial) {
  ThreadPool::SetNumThreads(4);
  std::vector<uint64_t> values(50000);
  uint64_t seed = 0x9e3779b97f4a7c15ULL;
  for (auto& v : values) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    v = seed % 1000;
  }
  std::vector<uint64_t> expected = values;
  const uint64_t expected_total = ExclusivePrefixSum(expected);
  const uint64_t total = ParallelPrefixSum(values, /*grain=*/512);
  EXPECT_EQ(total, expected_total);
  EXPECT_EQ(values, expected);
  ThreadPool::SetNumThreads(1);
}

TEST(Reducer, FloatingPointSumIsDeterministicUnderStealing) {
  // The reduction tree is fixed by (begin, end, grain), not by which
  // worker computed which leaf, so repeated runs — each with different
  // steal interleavings — must agree bitwise even in floating point.
  ThreadPool::SetNumThreads(4);
  std::vector<double> data(100000);
  uint64_t seed = 1;
  for (auto& v : data) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    v = static_cast<double>(seed >> 11) * 1e-17;
  }
  const auto sum = [&data] {
    return ParallelReduceSum<double>(0, data.size(),
                                     [&data](size_t i) { return data[i]; });
  };
  const double first = sum();
  for (int round = 0; round < 10; ++round) {
    const double again = sum();
    EXPECT_EQ(first, again) << "round " << round << " diverged";
  }
  ThreadPool::SetNumThreads(1);
}

TEST(Reducer, IntegerSumDeterministicAcrossGrainsAndThreads)
{
  // Exactness property: for any grain and worker count the reduction is
  // the closed-form total (integer sums are schedule-independent anyway;
  // this pins the partition logic — every index exactly once).
  const size_t n = 12345;
  const uint64_t expected = static_cast<uint64_t>(n - 1) * n / 2;
  for (const size_t threads : {1u, 2u, 4u}) {
    ThreadPool::SetNumThreads(threads);
    for (const size_t grain : {1u, 7u, 64u, 100000u}) {
      const uint64_t total = ParallelReduce<uint64_t>(
          0, n,
          [](size_t lo, size_t hi) {
            uint64_t local = 0;
            for (size_t i = lo; i < hi; ++i) {
              local += i;
            }
            return local;
          },
          [](uint64_t a, uint64_t b) { return a + b; }, grain);
      EXPECT_EQ(total, expected) << "threads=" << threads << " grain=" << grain;
    }
  }
  ThreadPool::SetNumThreads(1);
}

// Dense refinement levels pull into cells their chunk owns, with no atomics
// and a fixed (in-edge) summation order, so a batch whose every level is
// dense refines to the same bits at any worker count. Under TSan this also
// checks that each owned cell has a single writer.
TEST(Refinement, DenseLevelsAreBitwiseEqualAcrossWorkerCounts) {
  const size_t original = ThreadPool::Instance().num_threads();
  EdgeList full = GenerateRmat(4000, 48000, {.seed = 130});
  StreamSplit split = SplitForStreaming(full, 0.5, 131);
  ThreadPool::SetNumThreads(1);
  MutableGraph graph_one(split.initial);
  MutableGraph graph_four(split.initial);
  GraphBoltEngine<PageRank> one(&graph_one, PageRank{});
  GraphBoltEngine<PageRank> four(&graph_four, PageRank{});
  one.InitialCompute();
  four.InitialCompute();

  // Over a tenth of the edges mutated: the added edges' sources alone carry
  // more than |E|/20 out-edges, and as context-changed contributors they
  // are in the frontier at every level, so every level is dense.
  UpdateStream stream(split.held_back, 132);
  const MutationBatch batch =
      stream.NextBatch(graph_one, {.size = graph_one.num_edges() / 8, .add_fraction = 0.6});
  const AppliedMutations applied = one.ApplyMutations(batch);
  ASSERT_GT(applied.added.size(), graph_one.num_edges() / 20);
  ThreadPool::SetNumThreads(4);
  four.ApplyMutations(batch);
  ThreadPool::SetNumThreads(original);

  auto same_bits = [](const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  EXPECT_TRUE(same_bits(one.values(), four.values()));
  for (uint32_t level = 1; level <= one.store().tracked_levels(); ++level) {
    EXPECT_TRUE(same_bits(one.store().LevelArray(level), four.store().LevelArray(level)))
        << "level " << level;
  }
}

}  // namespace
}  // namespace graphbolt

// Parallel reductions and prefix sums over index ranges, on the
// work-stealing TaskArena.
//
// Reductions use *eager* binary splitting with a fixed merge tree: the
// range is always split at its midpoint, the upper half is forked, and the
// two partials merge in (left, right) order. The split points — and hence
// the merge tree — depend only on (begin, end, grain), never on which
// thread executed what, so floating-point reductions are bitwise
// deterministic under stealing (the old mutex-merge accumulated in arrival
// order). Prefix sums use the two-pass blocked scan, which is likewise
// schedule-independent.
#ifndef SRC_PARALLEL_REDUCER_H_
#define SRC_PARALLEL_REDUCER_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "src/parallel/parallel_for.h"
#include "src/parallel/task_arena.h"

namespace graphbolt {

namespace parallel_internal {

template <typename T, typename ChunkFn, typename MergeFn>
T ReduceSplit(size_t lo, size_t hi, size_t grain, const ChunkFn& chunk_fn,
              const MergeFn& merge) {
  if (hi - lo <= grain) {
    return chunk_fn(lo, hi);
  }
  const size_t mid = lo + (hi - lo) / 2;
  T right{};
  TaskGroup group;
  group.Run([&] { right = ReduceSplit<T>(mid, hi, grain, chunk_fn, merge); });
  T left = ReduceSplit<T>(lo, mid, grain, chunk_fn, merge);
  group.Wait();
  return merge(std::move(left), std::move(right));
}

}  // namespace parallel_internal

// General chunked reduction: chunk_fn(lo, hi) -> T over leaf ranges,
// merge(T, T) -> T up a midpoint-split tree. Deterministic for a fixed
// (begin, end, grain) regardless of scheduling. Returns T{} on an empty
// range.
template <typename T, typename ChunkFn, typename MergeFn>
T ParallelReduce(size_t begin, size_t end, const ChunkFn& chunk_fn,
                 const MergeFn& merge, size_t grain = kDefaultGrain) {
  if (begin >= end) {
    return T{};
  }
  grain = grain == 0 ? 1 : grain;
  TaskArena& arena = TaskArena::Instance();
  if (end - begin <= grain || arena.num_threads() == 1) {
    arena.CountInlineRun();
    return chunk_fn(begin, end);
  }
  return parallel_internal::ReduceSplit<T>(begin, end, grain, chunk_fn, merge);
}

// Sum of body(i) over [begin, end).
template <typename T, typename Body>
T ParallelReduceSum(size_t begin, size_t end, const Body& body, T init = T{}) {
  T total = ParallelReduce<T>(
      begin, end,
      [&body](size_t lo, size_t hi) {
        T local{};
        for (size_t i = lo; i < hi; ++i) {
          local += body(i);
        }
        return local;
      },
      [](T a, T b) { return a + b; });
  return init + total;
}

// Exclusive prefix sum of `values`; returns the grand total. values[i]
// becomes the sum of the original values[0..i).
template <typename T>
T ExclusivePrefixSum(std::vector<T>& values) {
  T running{};
  for (auto& value : values) {
    const T next = running + value;
    value = running;
    running = next;
  }
  return running;
}

// Parallel exclusive prefix sum of `values` in place; returns the grand
// total. Two-pass blocked scan: per-block totals in parallel, a serial scan
// over the (few) block totals, then a parallel fix-up pass. Small inputs
// fall back to the serial ExclusivePrefixSum. This backs the offset pass of
// SlackCsr compaction (both the synchronous path and the shadow-arena
// offsets of a background compaction), where V is large enough for the
// blocks to matter.
template <typename T>
T ParallelPrefixSum(std::vector<T>& values, size_t grain = 4096) {
  const size_t n = values.size();
  if (n < 2 * grain) {
    return ExclusivePrefixSum(values);
  }
  const size_t num_blocks = (n + grain - 1) / grain;
  std::vector<T> block_totals(num_blocks);
  ParallelFor(0, num_blocks, [&](size_t b) {
    const size_t lo = b * grain;
    const size_t hi = lo + grain < n ? lo + grain : n;
    T local{};
    for (size_t i = lo; i < hi; ++i) {
      local += values[i];
    }
    block_totals[b] = local;
  }, /*grain=*/1);
  const T total = ExclusivePrefixSum(block_totals);
  ParallelFor(0, num_blocks, [&](size_t b) {
    const size_t lo = b * grain;
    const size_t hi = lo + grain < n ? lo + grain : n;
    T running = block_totals[b];
    for (size_t i = lo; i < hi; ++i) {
      const T next = running + values[i];
      values[i] = running;
      running = next;
    }
  }, /*grain=*/1);
  return total;
}

}  // namespace graphbolt

#endif  // SRC_PARALLEL_REDUCER_H_

// Micro-benchmarks (google-benchmark) for the primitives the engines are
// built from: atomic aggregation ops, parallel loops, CSR construction and
// two-pass mutation, dense/sparse iteration, and dependency-store
// snapshots. These are not in the paper; they exist to catch performance
// regressions in the substrate.
#include <benchmark/benchmark.h>

#include "src/algorithms/pagerank.h"
#include "src/core/dependency_store.h"
#include "src/core/graphbolt_engine.h"
#include "src/engine/edge_map.h"
#include "src/engine/ligra_engine.h"
#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "src/graph/mutable_graph.h"
#include "src/parallel/atomics.h"
#include "src/parallel/parallel_for.h"
#include "src/util/random.h"

namespace graphbolt {
namespace {

void BM_AtomicAddDouble(benchmark::State& state) {
  double cell = 0.0;
  for (auto _ : state) {
    AtomicAdd(&cell, 1.0);
  }
  benchmark::DoNotOptimize(cell);
}
BENCHMARK(BM_AtomicAddDouble);

void BM_AtomicMinDouble(benchmark::State& state) {
  double cell = 1e30;
  double candidate = 1e29;
  for (auto _ : state) {
    AtomicMin(&cell, candidate);
    candidate *= 0.999999;
  }
  benchmark::DoNotOptimize(cell);
}
BENCHMARK(BM_AtomicMinDouble);

void BM_ParallelForOverhead(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> data(n, 1.0);
  for (auto _ : state) {
    ParallelFor(0, n, [&data](size_t i) { data[i] = data[i] * 1.0000001 + 0.1; });
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * static_cast<int64_t>(n));
}
BENCHMARK(BM_ParallelForOverhead)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

// Per-chunk dispatch cost isolated: tiny chunks (grain 1) maximize the
// number of chunk calls, so scheduling overhead dominates the trivial body.
void BM_ParallelForChunkDispatchTemplate(benchmark::State& state) {
  const size_t n = 4096;
  std::vector<uint32_t> data(n, 1);
  for (auto _ : state) {
    ParallelForChunks(0, n, [&data](size_t lo, size_t) { data[lo] += 1; },
                      /*grain=*/1);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * static_cast<int64_t>(n));
}
BENCHMARK(BM_ParallelForChunkDispatchTemplate);

void BM_CsrConstruction(benchmark::State& state) {
  const auto n = static_cast<VertexId>(state.range(0));
  EdgeList list = GenerateRmat(n, static_cast<EdgeIndex>(n) * 12, {.seed = 1});
  for (auto _ : state) {
    Csr csr = Csr::FromEdges(list.num_vertices(), list.edges());
    benchmark::DoNotOptimize(csr.num_edges());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(list.num_edges()));
}
BENCHMARK(BM_CsrConstruction)->Arg(1 << 12)->Arg(1 << 15);

void BM_TwoPassMutation(benchmark::State& state) {
  const size_t batch_size = static_cast<size_t>(state.range(0));
  EdgeList list = GenerateRmat(1 << 15, 1 << 18, {.seed = 2});
  MutableGraph graph(list);
  Rng rng(3);
  for (auto _ : state) {
    MutationBatch batch;
    batch.reserve(batch_size);
    for (size_t i = 0; i < batch_size; ++i) {
      const auto src = static_cast<VertexId>(rng.NextBounded(graph.num_vertices()));
      const auto dst = static_cast<VertexId>(rng.NextBounded(graph.num_vertices()));
      batch.push_back(rng.NextDouble() < 0.5 ? EdgeMutation::Add(src, dst)
                                             : EdgeMutation::Delete(src, dst));
    }
    benchmark::DoNotOptimize(graph.ApplyBatch(batch));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch_size));
}
BENCHMARK(BM_TwoPassMutation)->Arg(100)->Arg(10000);

void BM_DensePageRankIteration(benchmark::State& state) {
  EdgeList list = GenerateRmat(1 << 14, 1 << 17, {.seed = 4});
  MutableGraph graph(list);
  LigraEngine<PageRank> engine(&graph, PageRank{}, {.max_iterations = 1});
  for (auto _ : state) {
    engine.InitialCompute();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(graph.num_edges()));
}
BENCHMARK(BM_DensePageRankIteration);

void BM_GraphBoltSingleEdgeRefine(benchmark::State& state) {
  EdgeList list = GenerateRmat(1 << 14, 1 << 17, {.seed = 5});
  MutableGraph graph(list);
  GraphBoltEngine<PageRank> engine(&graph, PageRank{});
  engine.InitialCompute();
  Rng rng(6);
  for (auto _ : state) {
    const auto src = static_cast<VertexId>(rng.NextBounded(graph.num_vertices()));
    const auto dst = static_cast<VertexId>(rng.NextBounded(graph.num_vertices()));
    engine.ApplyMutations({EdgeMutation::Add(src, dst)});
  }
}
BENCHMARK(BM_GraphBoltSingleEdgeRefine)->Unit(benchmark::kMillisecond);

// A pull-direction edgeMap chain, unfused: every step pays
// FrontierBuilder::Take's O(universe) sparse pack even though the next step
// reads the frontier only through its dense bitset.
void BM_EdgeMapDenseChainTake(benchmark::State& state) {
  const auto n = static_cast<VertexId>(state.range(0));
  EdgeList list = GenerateRmat(n, static_cast<EdgeIndex>(n) * 8, {.seed = 7});
  MutableGraph graph(list);
  const auto keep = [](VertexId, VertexId v, Weight) { return (v & 1) == 0; };
  for (auto _ : state) {
    VertexSubset frontier = VertexSubset::All(graph.num_vertices());
    for (int step = 0; step < 4; ++step) {
      frontier = EdgeMapDense(graph, frontier, keep);
    }
    benchmark::DoNotOptimize(frontier.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 4 *
                          static_cast<int64_t>(graph.num_edges()));
}
BENCHMARK(BM_EdgeMapDenseChainTake)->Arg(1 << 14)->Arg(1 << 17);

// The same chain with EdgeMapOptions::dense_result: each step hands the
// claim bitset over as the subset's authoritative dense view (TakeDense —
// an O(universe/64) word copy) and no sparse member list is ever built.
void BM_EdgeMapDenseChainFused(benchmark::State& state) {
  const auto n = static_cast<VertexId>(state.range(0));
  EdgeList list = GenerateRmat(n, static_cast<EdgeIndex>(n) * 8, {.seed = 7});
  MutableGraph graph(list);
  const auto keep = [](VertexId, VertexId v, Weight) { return (v & 1) == 0; };
  for (auto _ : state) {
    VertexSubset frontier = VertexSubset::All(graph.num_vertices());
    for (int step = 0; step < 4; ++step) {
      frontier = EdgeMapDense(graph, frontier, keep, /*dense_result=*/true);
    }
    benchmark::DoNotOptimize(frontier.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 4 *
                          static_cast<int64_t>(graph.num_edges()));
}
BENCHMARK(BM_EdgeMapDenseChainFused)->Arg(1 << 14)->Arg(1 << 17);

void BM_DependencyStoreSnapshot(benchmark::State& state) {
  const auto n = static_cast<VertexId>(state.range(0));
  DependencyStore<double> store;
  std::vector<double> aggregates(n, 1.0);
  for (auto _ : state) {
    state.PauseTiming();
    store.Reset(n, 64);
    state.ResumeTiming();
    for (uint32_t level = 1; level <= 10; ++level) {
      store.SnapshotLevel(level, aggregates, AtomicBitset(n));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 10 *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_DependencyStoreSnapshot)->Arg(1 << 14)->Arg(1 << 17);

}  // namespace
}  // namespace graphbolt

BENCHMARK_MAIN();

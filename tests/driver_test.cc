// StreamDriver tests: equivalence with the bare-engine batch loop,
// multi-producer ingestion under load with mid-stream query barriers, and
// shutdown/drain semantics. The concurrency cases (MultiProducer*,
// Backpressure*, Shutdown*) are what `ctest -L concurrency` runs under
// GRAPHBOLT_SANITIZE=thread.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/algorithms/pagerank.h"
#include "src/algorithms/sssp.h"
#include "src/core/graphbolt_engine.h"
#include "src/core/streaming_engine.h"
#include "src/driver/gutter_buffer.h"
#include "src/driver/stream_driver.h"
#include "src/engine/ligra_engine.h"
#include "src/engine/reset_engine.h"
#include "src/graph/generators.h"
#include "src/kickstarter/kickstarter_engine.h"
#include "src/parallel/bounded_queue.h"
#include "src/parallel/task_arena.h"
#include "src/stream/update_stream.h"
#include "tests/test_util.h"

namespace graphbolt {
namespace {

// The concept is the contract; drift must fail to compile.
static_assert(StreamingEngine<LigraEngine<PageRank>>);
static_assert(StreamingEngine<ResetEngine<PageRank>>);
static_assert(StreamingEngine<GraphBoltEngine<PageRank>>);
static_assert(StreamingEngine<KickStarterEngine<KsSsspTraits>>);
static_assert(!StreamingEngine<int>);
static_assert(!StreamingEngine<MutableGraph>);

// Pre-generates `count` batches against an evolving shadow graph so the
// driver run and the sequential reference see the identical stream.
std::vector<MutationBatch> MakeBatches(const StreamSplit& split, size_t count, size_t batch_size,
                                       uint64_t seed) {
  MutableGraph shadow(split.initial);
  UpdateStream stream(split.held_back, seed);
  std::vector<MutationBatch> batches;
  for (size_t i = 0; i < count; ++i) {
    MutationBatch batch = stream.NextBatch(shadow, {.size = batch_size, .add_fraction = 0.6});
    shadow.ApplyBatch(batch);
    batches.push_back(std::move(batch));
  }
  return batches;
}

// Streams every batch through a driver wrapped around `engine`, forcing
// the driver's flush boundaries to coincide with the pre-made batches
// (batch_size larger than any batch + explicit Flush), and compares
// values() against sequentially applying the same batches to `reference`.
// With one pool thread both paths are deterministic, so the comparison is
// bitwise. Constrained on the concept: one helper covers every engine.
template <StreamingEngine Engine>
void ExpectDriverMatchesSequential(Engine& engine, Engine& reference,
                                   const std::vector<MutationBatch>& batches) {
  engine.InitialCompute();
  reference.InitialCompute();

  // coalesce=false so the engine receives the byte-identical batch (the
  // normalized effect is equal either way, but the direct-impact pass sums
  // contributions in batch order, and bitwise comparison needs that order
  // preserved).
  StreamDriver<Engine> driver(&engine, {.batch_size = 1u << 20,
                                        .flush_interval_seconds = 3600.0,
                                        .coalesce = false});
  for (size_t i = 0; i < batches.size(); ++i) {
    ASSERT_EQ(driver.IngestBatch(batches[i]), batches[i].size());
    driver.Flush();
    reference.ApplyMutations(batches[i]);
    if (i == batches.size() / 2) {
      // Mid-stream query barrier: the snapshot must already agree.
      const auto& mid = driver.values();
      ASSERT_EQ(mid.size(), reference.values().size());
      for (size_t v = 0; v < mid.size(); ++v) {
        ASSERT_EQ(mid[v], reference.values()[v]) << "mid-stream vertex " << v;
      }
    }
  }
  const auto& values = driver.values();
  ASSERT_EQ(values.size(), reference.values().size());
  for (size_t v = 0; v < values.size(); ++v) {
    ASSERT_EQ(values[v], reference.values()[v]) << "vertex " << v;
  }

  const EngineStats stats = driver.stats();
  EXPECT_EQ(stats.batches_applied, batches.size());
  EXPECT_EQ(stats.mutations_dropped, 0u);
  EXPECT_EQ(stats.mutations_coalesced, 0u);
}

TEST(DriverEquivalence, PageRankBitwiseIdenticalToSequentialLoop) {
  TaskArena::SetNumThreads(1);  // deterministic summation order
  EdgeList full = GenerateRmat(1500, 12000, {.seed = 11});
  StreamSplit split = SplitForStreaming(full, 0.5, 12);
  std::vector<MutationBatch> batches = MakeBatches(split, 24, 80, 13);

  MutableGraph g_driver(split.initial);
  MutableGraph g_ref(split.initial);
  GraphBoltEngine<PageRank> engine(&g_driver, PageRank{});
  GraphBoltEngine<PageRank> reference(&g_ref, PageRank{});
  ExpectDriverMatchesSequential(engine, reference, batches);
}

TEST(DriverEquivalence, SsspBitwiseIdenticalToSequentialLoop) {
  TaskArena::SetNumThreads(1);
  EdgeList full = GenerateRmat(1200, 9000, {.seed = 21, .assign_random_weights = true});
  StreamSplit split = SplitForStreaming(full, 0.5, 22);
  std::vector<MutationBatch> batches = MakeBatches(split, 22, 60, 23);

  MutableGraph g_driver(split.initial);
  MutableGraph g_ref(split.initial);
  const GraphBoltEngine<Sssp>::Options options{.max_iterations = 128, .run_to_convergence = true};
  GraphBoltEngine<Sssp> engine(&g_driver, Sssp(0), options);
  GraphBoltEngine<Sssp> reference(&g_ref, Sssp(0), options);
  ExpectDriverMatchesSequential(engine, reference, batches);
}

TEST(DriverEquivalence, KickStarterThroughDriverMatchesSequential) {
  TaskArena::SetNumThreads(1);
  EdgeList full = GenerateRmat(1000, 8000, {.seed = 31, .assign_random_weights = true});
  StreamSplit split = SplitForStreaming(full, 0.5, 32);
  std::vector<MutationBatch> batches = MakeBatches(split, 20, 50, 33);

  MutableGraph g_driver(split.initial);
  MutableGraph g_ref(split.initial);
  KickStarterEngine<KsSsspTraits> engine(&g_driver, KsSsspTraits(0));
  KickStarterEngine<KsSsspTraits> reference(&g_ref, KsSsspTraits(0));
  ExpectDriverMatchesSequential(engine, reference, batches);
}

TEST(DriverEquivalence, BackgroundCompactionBitwiseIdenticalAndNeverSynchronous) {
  TaskArena::SetNumThreads(1);  // deterministic summation order
  EdgeList full = GenerateRmat(1200, 9000, {.seed = 41});
  StreamSplit split = SplitForStreaming(full, 0.5, 42);

  // Pure-delete batches so slack accrues fast enough that compaction must
  // actually happen somewhere — the point is *where*: the maintenance
  // windows, never inside an apply. Deletes only because an add that
  // relocates a hub segment strands its old capacity in one jump, which
  // can legitimately outrun maintenance into the forced-sync backstop;
  // deletion slack grows by at most the batch size, so here "never
  // synchronous" is exact.
  MutableGraph shadow(split.initial);
  UpdateStream stream(split.held_back, 43);
  std::vector<MutationBatch> batches;
  for (size_t i = 0; i < 12; ++i) {
    MutationBatch batch = stream.NextBatch(shadow, {.size = 250, .add_fraction = 0.0});
    shadow.ApplyBatch(batch);
    batches.push_back(std::move(batch));
  }

  MutableGraph g_driver(split.initial);
  MutableGraph g_ref(split.initial);
  GraphBoltEngine<PageRank> engine(&g_driver, PageRank{});
  GraphBoltEngine<PageRank> reference(&g_ref, PageRank{});
  engine.InitialCompute();
  reference.InitialCompute();
  {
    StreamDriver<GraphBoltEngine<PageRank>> driver(
        &engine, {.batch_size = 1u << 20,
                  .flush_interval_seconds = 3600.0,
                  .coalesce = false,
                  .background_compaction = true});
    for (const MutationBatch& batch : batches) {
      ASSERT_EQ(driver.IngestBatch(batch), batch.size());
      driver.Flush();
      reference.ApplyMutations(batch);
    }
    // The reference applies the same stream with default (synchronous)
    // compaction: per-vertex adjacency order is identical either way, so
    // the values must match bitwise.
    const auto& values = driver.values();
    ASSERT_EQ(values.size(), reference.values().size());
    for (size_t v = 0; v < values.size(); ++v) {
      ASSERT_EQ(values[v], reference.values()[v]) << "vertex " << v;
    }
    const EngineStats stats = driver.stats();
    EXPECT_GT(stats.maintenance_steps, 0u);
    EXPECT_GT(stats.background_compactions, 0u);
  }
  const SlackCsr::CompactionStats graph_stats = g_driver.compaction_stats();
  EXPECT_EQ(graph_stats.sync_compactions, 0u) << "an apply compacted synchronously";
  EXPECT_EQ(graph_stats.forced_sync_compactions, 0u) << "maintenance fell behind the stream";
}

TEST(StreamDriverTest, MultiProducerIngestUnderLoadWithMidStreamQuery) {
  TaskArena::SetNumThreads(2);
  // Addition-only stream: the final graph is order-independent across the
  // racing producers, so the drained result is checkable against a
  // from-scratch run on the final snapshot (the BSP guarantee).
  EdgeList full = GenerateRmat(1200, 14000, {.seed = 41});
  StreamSplit split = SplitForStreaming(full, 0.5, 42);

  MutableGraph graph(split.initial);
  GraphBoltEngine<PageRank> engine(&graph, PageRank{});
  engine.InitialCompute();

  StreamDriver<GraphBoltEngine<PageRank>> driver(
      &engine, {.batch_size = 64, .flush_interval_seconds = 0.002, .max_pending_batches = 2});

  constexpr size_t kProducers = 4;
  std::vector<std::vector<Edge>> slices(kProducers);
  for (size_t i = 0; i < split.held_back.size(); ++i) {
    slices[i % kProducers].push_back(split.held_back[i]);
  }
  std::atomic<uint64_t> accepted{0};
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (const Edge& e : slices[p]) {
        if (driver.Ingest(EdgeMutation::Add(e.src, e.dst, e.weight))) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Mid-stream query barriers from a fifth thread: every snapshot must be
  // a consistent BSP state (finite, full-sized) while producers hammer.
  for (int q = 0; q < 3; ++q) {
    std::vector<double> snapshot = driver.QuerySnapshot();
    ASSERT_EQ(snapshot.size(), graph.num_vertices());
    for (const double rank : snapshot) {
      ASSERT_TRUE(std::isfinite(rank));
      ASSERT_GT(rank, 0.0);
    }
  }

  for (std::thread& t : producers) {
    t.join();
  }
  driver.PrepQuery();

  const EngineStats stats = driver.stats();
  EXPECT_EQ(stats.mutations_enqueued, accepted.load());
  EXPECT_EQ(stats.mutations_enqueued, split.held_back.size());
  EXPECT_EQ(stats.mutations_dropped, 0u);
  EXPECT_GE(stats.batches_applied, 1u);

  // BSP exactness after drain: the incremental path must land on what a
  // from-scratch run over the final graph produces (small fp headroom —
  // the two paths sum contributions in different orders).
  MutableGraph final_graph(full);
  LigraEngine<PageRank> fresh(&final_graph, PageRank{});
  fresh.InitialCompute();
  EXPECT_EQ(graph.num_edges(), final_graph.num_edges());
  EXPECT_LT(MaxGap(driver.values(), fresh.values()), 1e-7);
}

TEST(StreamDriverTest, ShutdownDrainsPendingMutations) {
  TaskArena::SetNumThreads(1);
  EdgeList full = GenerateRmat(600, 5000, {.seed = 51});
  StreamSplit split = SplitForStreaming(full, 0.5, 52);
  std::vector<MutationBatch> batches = MakeBatches(split, 1, 40, 53);

  MutableGraph g_driver(split.initial);
  MutableGraph g_ref(split.initial);
  GraphBoltEngine<PageRank> engine(&g_driver, PageRank{});
  GraphBoltEngine<PageRank> reference(&g_ref, PageRank{});
  engine.InitialCompute();
  reference.InitialCompute();

  StreamDriver<GraphBoltEngine<PageRank>> driver(
      &engine,
      {.batch_size = 1u << 20, .flush_interval_seconds = 3600.0, .coalesce = false});
  // Everything stays in the gutter: nothing reaches batch_size and the
  // staleness deadline is an hour out. Stop() must still drain it.
  ASSERT_EQ(driver.IngestBatch(batches[0]), batches[0].size());
  EXPECT_EQ(driver.pending_mutations(), batches[0].size());
  EXPECT_EQ(driver.stats().batches_applied, 0u);
  driver.Stop();

  EXPECT_EQ(driver.pending_mutations(), 0u);
  EXPECT_EQ(driver.stats().batches_applied, 1u);
  EXPECT_EQ(driver.stats().mutations_dropped, 0u);

  // Ingestion after Stop is refused and counted, never silently lost.
  EXPECT_FALSE(driver.Ingest(EdgeMutation::Add(0, 1)));
  EXPECT_EQ(driver.stats().mutations_dropped, 1u);

  reference.ApplyMutations(batches[0]);
  ASSERT_EQ(engine.values().size(), reference.values().size());
  for (size_t v = 0; v < engine.values().size(); ++v) {
    ASSERT_EQ(engine.values()[v], reference.values()[v]) << "vertex " << v;
  }
}

TEST(StreamDriverTest, PrepQueryFastPathAfterDrain) {
  MutableGraph graph(GenerateRmat(300, 2000, {.seed = 61}));
  GraphBoltEngine<PageRank> engine(&graph, PageRank{});
  engine.InitialCompute();
  StreamDriver<GraphBoltEngine<PageRank>> driver(&engine, {.batch_size = 4});

  EXPECT_FALSE(driver.PrepQuery());  // nothing ever ingested: cached
  for (int i = 0; i < 10; ++i) {
    driver.Ingest(EdgeMutation::Add(static_cast<VertexId>(i), static_cast<VertexId>(i + 1)));
  }
  EXPECT_TRUE(driver.PrepQuery());   // had to flush + drain
  EXPECT_FALSE(driver.PrepQuery());  // quiescent again: cached
}

TEST(StreamDriverTest, StalenessDeadlineFlushesPartialGutter) {
  MutableGraph graph(GenerateRmat(300, 2000, {.seed = 71}));
  GraphBoltEngine<PageRank> engine(&graph, PageRank{});
  engine.InitialCompute();
  StreamDriver<GraphBoltEngine<PageRank>> driver(
      &engine, {.batch_size = 1u << 20, .flush_interval_seconds = 0.005});

  driver.Ingest(EdgeMutation::Add(1, 2));
  driver.Ingest(EdgeMutation::Add(2, 3));
  // No Flush/PrepQuery: the worker's staleness deadline must fire on its own.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (driver.stats().batches_applied == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(driver.stats().batches_applied, 1u);
  EXPECT_TRUE(graph.HasEdge(1, 2));
  EXPECT_TRUE(graph.HasEdge(2, 3));
}

TEST(StreamDriverTest, BackpressureBlocksProducersWithoutLossOrDeadlock) {
  TaskArena::SetNumThreads(2);
  EdgeList full = GenerateRmat(800, 8000, {.seed = 81});
  StreamSplit split = SplitForStreaming(full, 0.5, 82);

  MutableGraph graph(split.initial);
  GraphBoltEngine<PageRank> engine(&graph, PageRank{});
  engine.InitialCompute();

  // Tiny batches and a single-slot queue force the full-queue path.
  StreamDriver<GraphBoltEngine<PageRank>> driver(
      &engine, {.batch_size = 8, .flush_interval_seconds = 0.001, .max_pending_batches = 1});
  std::vector<std::thread> producers;
  for (size_t p = 0; p < 3; ++p) {
    producers.emplace_back([&, p] {
      for (size_t i = p; i < split.held_back.size(); i += 3) {
        const Edge& e = split.held_back[i];
        ASSERT_TRUE(driver.Ingest(EdgeMutation::Add(e.src, e.dst, e.weight)));
      }
    });
  }
  for (std::thread& t : producers) {
    t.join();
  }
  driver.PrepQuery();
  const EngineStats stats = driver.stats();
  EXPECT_EQ(stats.mutations_enqueued, split.held_back.size());
  EXPECT_EQ(stats.mutations_dropped, 0u);
}

TEST(GutterBufferTest, CoalescingKeepsLastMutationPerPair) {
  GutterBuffer gutter;
  gutter.Add(EdgeMutation::Add(1, 2, 1.0f));
  gutter.Add(EdgeMutation::Add(3, 4, 2.0f));
  gutter.Add(EdgeMutation::Delete(1, 2));
  gutter.Add(EdgeMutation::Add(3, 4, 5.0f));
  uint64_t coalesced = 0;
  MutationBatch batch = gutter.Take(/*coalesce=*/true, &coalesced);
  EXPECT_TRUE(gutter.empty());
  EXPECT_EQ(coalesced, 2u);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].kind, MutationKind::kDeleteEdge);
  EXPECT_EQ(batch[0].src, 1u);
  EXPECT_EQ(batch[1].kind, MutationKind::kAddEdge);
  EXPECT_EQ(batch[1].weight, 5.0f);
}

TEST(GutterBufferTest, CoalescedBatchIsEquivalentToRawBatch) {
  // NormalizeBatch is last-wins per (src, dst); coalescing must therefore
  // leave the applied effect untouched.
  EdgeList base = PaperFigure2aGraph();
  MutableGraph raw_graph(base);
  MutableGraph coalesced_graph(base);

  GutterBuffer gutter;
  MutationBatch raw;
  const EdgeMutation sequence[] = {
      EdgeMutation::Add(0, 3), EdgeMutation::Delete(0, 3),   // cancels to delete-absent
      EdgeMutation::Delete(2, 1), EdgeMutation::Add(2, 1, 7.0f),  // re-add with new weight
      EdgeMutation::Add(4, 0), EdgeMutation::Add(4, 0),      // duplicate add
  };
  for (const EdgeMutation& m : sequence) {
    gutter.Add(m);
    raw.push_back(m);
  }
  uint64_t coalesced = 0;
  MutationBatch compact = gutter.Take(/*coalesce=*/true, &coalesced);
  EXPECT_EQ(coalesced, 3u);

  raw_graph.ApplyBatch(raw);
  coalesced_graph.ApplyBatch(compact);
  EXPECT_EQ(raw_graph.ToEdgeList().edges(), coalesced_graph.ToEdgeList().edges());
}

TEST(BoundedQueueTest, CloseDrainsThenReportsEmpty) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.Push(1));
  EXPECT_TRUE(queue.Push(2));
  EXPECT_FALSE(queue.TryPush(3));  // full
  queue.Close();
  EXPECT_FALSE(queue.Push(4));  // closed
  EXPECT_EQ(queue.Pop(), std::optional<int>(1));
  EXPECT_EQ(queue.Pop(), std::optional<int>(2));
  EXPECT_EQ(queue.Pop(), std::nullopt);  // drained
}

TEST(BoundedQueueTest, BlockedPopWakesOnPush) {
  BoundedQueue<int> queue(1);
  std::thread consumer([&] {
    std::optional<int> item = queue.Pop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, 42);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(queue.Push(42));
  consumer.join();
}

}  // namespace
}  // namespace graphbolt

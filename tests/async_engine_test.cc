// Async delta-accumulative tier (INTERNALS §12): the Maiter-style
// barrier-free execution mode that eligible engines flip into under
// kDegrade overload.
//
// Three layers under test:
//   1. Concept layer — only decomposable aggregations admit the async API
//      (compile-time static_asserts on AsyncDeltaEngine).
//   2. Engine layer — differential convergence: the async fixed point on a
//      seeded mutation stream matches a run-to-convergence BSP engine on
//      the same final graph within 1e-9 relative error, for PageRank, CoEM
//      and Label Propagation; and ExitAsyncReconcile restores state
//      bitwise-identical (==) to a fresh InitialCompute (one pool thread,
//      so parallel reduction order is deterministic).
//   3. Driver layer — under kDegrade pressure with --async-mode
//      degrade-only, StreamDriver flips the engine async, serves degraded
//      queries from continuously-updating values (async_fresh_queries and
//      async_applies progress across successive samples), then self-clears
//      through one reconciling barrier once pressure recedes. A sharded
//      smoke run proves the same protocol on ShardedDriver lanes.
//
// Conventions follow sentinel_test.cc: one pool thread, pre-generated
// streams, generous poll loops around timing-dependent flags. The driver
// floods use addition-only distinct-edge chunks so the final graph is
// independent of how the degrade gutter re-batches overflow.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/algorithms/coem.h"
#include "src/algorithms/label_propagation.h"
#include "src/algorithms/pagerank.h"
#include "src/algorithms/sssp.h"
#include "src/core/graphbolt_engine.h"
#include "src/core/streaming_engine.h"
#include "src/driver/stream_driver.h"
#include "src/engine/reset_engine.h"
#include "src/graph/generators.h"
#include "src/graph/mutable_graph.h"
#include "src/parallel/task_arena.h"
#include "src/shard/driver_config.h"
#include "src/shard/sharded_driver.h"
#include "src/stream/update_stream.h"
#include "src/util/timer.h"
#include "tests/test_util.h"

namespace graphbolt {
namespace {

constexpr auto kTick = std::chrono::milliseconds(10);

// ----- Concept layer: eligibility is decided by the aggregation kind ---------

static_assert(AsyncDeltaEngine<GraphBoltEngine<PageRank>>);
static_assert(AsyncDeltaEngine<GraphBoltEngine<CoEM>>);
static_assert(AsyncDeltaEngine<GraphBoltEngine<LabelPropagation<2>>>);
static_assert(GraphBoltEngine<PageRank>::kAsyncEligible);
// Min/max aggregations are non-decomposable: no per-edge retraction exists,
// so the delta-accumulative invariant cannot be patched in place.
static_assert(!GraphBoltEngine<Sssp>::kAsyncEligible);
static_assert(!AsyncDeltaEngine<GraphBoltEngine<Sssp>>);
// ResetEngine recomputes from scratch; it never exposes the async surface.
static_assert(!AsyncDeltaEngine<ResetEngine<PageRank>>);

// ----- Helpers ---------------------------------------------------------------

// Pre-generates `count` mixed add/remove batches against an evolving shadow
// graph (the sentinel_test / fault_recovery_test convention). The shadow is
// left at the stream's final state for reference-engine construction.
std::vector<MutationBatch> MakeBatches(MutableGraph* shadow, const std::vector<Edge>& held_back,
                                       size_t count, size_t batch_size, uint64_t seed) {
  UpdateStream stream(held_back, seed);
  std::vector<MutationBatch> batches;
  for (size_t i = 0; i < count; ++i) {
    MutationBatch batch = stream.NextBatch(*shadow, {.size = batch_size, .add_fraction = 0.6});
    shadow->ApplyBatch(batch);
    batches.push_back(std::move(batch));
  }
  return batches;
}

// Chops held-back additions into distinct-edge, addition-only batches; the
// final graph is then independent of batch boundaries and apply order.
std::vector<MutationBatch> AdditionChunks(const std::vector<Edge>& edges, size_t chunk) {
  std::vector<MutationBatch> out;
  for (size_t i = 0; i < edges.size(); i += chunk) {
    MutationBatch batch;
    for (size_t j = i; j < std::min(i + chunk, edges.size()); ++j) {
      batch.push_back(EdgeMutation::Add(edges[j].src, edges[j].dst, edges[j].weight));
    }
    out.push_back(std::move(batch));
  }
  return out;
}

// Drives the engine's async rounds until the residual reaches (near) zero.
template <typename Engine>
double StepToFixedPoint(Engine* engine, double target = 1e-12, int max_rounds = 200000) {
  double residual = engine->AsyncResidual();
  for (int i = 0; i < max_rounds && residual > target; ++i) {
    residual = engine->AsyncStep(/*budget=*/0);  // 0 = unbounded round
  }
  return residual;
}

// Relative closeness: |got - want| <= rel * max(1, |want|) per vertex. The
// max(1, ·) floor makes the bound absolute for the sub-unit values all three
// algorithms produce, which is the strict reading of "1e-9 relative".
template <typename Value>
void ExpectRelativeClose(const std::vector<Value>& got, const std::vector<Value>& want,
                         double rel) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t v = 0; v < got.size(); ++v) {
    const double gap = ValueGap(got[v], want[v]);
    const double scale = std::max(1.0, ValueGap(want[v], Value{}));
    EXPECT_LE(gap, rel * scale) << "vertex " << v;
  }
}

// ----- Engine layer: differential convergence --------------------------------

// Shared body: apply a seeded mixed stream barrier-free in async mode, run
// propagation rounds to the fixed point, and compare against a BSP engine
// run to convergence on the same final graph. The BSP reference uses the
// same tight algorithm tolerance (1e-12) so both sides quantify the *true*
// fixed point, not a truncated 10-iteration front.
template <typename Algo>
void RunAsyncConvergence(Algo algo, uint64_t graph_seed) {
  const EdgeList full = GenerateRmat(400, 3200, {.seed = graph_seed});
  const StreamSplit split = SplitForStreaming(full, 0.6, graph_seed + 1);

  MutableGraph shadow(split.initial);
  const std::vector<MutationBatch> batches =
      MakeBatches(&shadow, split.held_back, /*count=*/12, /*batch_size=*/64, graph_seed + 2);

  MutableGraph graph(split.initial);
  GraphBoltEngine<Algo> engine(&graph, algo);
  engine.InitialCompute();

  engine.EnterAsyncMode();
  ASSERT_TRUE(engine.async_mode());
  for (const MutationBatch& batch : batches) {
    engine.AsyncApplyMutations(batch);
  }
  const double residual = StepToFixedPoint(&engine);
  EXPECT_LE(residual, 1e-12);
  EXPECT_LE(engine.AsyncResidual(), 1e-12);

  // Reference: BSP run to convergence on the stream's final graph.
  MutableGraph final_graph(shadow.ToEdgeList());
  GraphBoltEngine<Algo> reference(&final_graph, algo, {.max_iterations = 100000, .run_to_convergence = true});
  reference.InitialCompute();

  ExpectRelativeClose(engine.values(), reference.values(), 1e-9);
}

TEST(AsyncConvergence, PageRankMatchesBspFixedPoint) {
  TaskArena::SetNumThreads(2);
  RunAsyncConvergence(PageRank(0.85, /*tolerance=*/1e-12), /*graph_seed=*/211);
}

TEST(AsyncConvergence, CoEMMatchesBspFixedPoint) {
  TaskArena::SetNumThreads(2);
  RunAsyncConvergence(CoEM(400, /*seed_fraction=*/0.05, /*seed=*/11, /*tolerance=*/1e-12),
                      /*graph_seed=*/221);
}

TEST(AsyncConvergence, LabelPropagationMatchesBspFixedPoint) {
  TaskArena::SetNumThreads(2);
  RunAsyncConvergence(
      LabelPropagation<2>(400, /*seed_fraction=*/0.1, /*seed=*/7, /*tolerance=*/1e-12),
      /*graph_seed=*/231);
}

// Deletion-heavy stream: retraction patches (Phase A at old contexts) are
// exercised hard; the invariant must survive edges vanishing under live
// aggregates.
TEST(AsyncConvergence, PageRankSurvivesDeletionHeavyStream) {
  TaskArena::SetNumThreads(2);
  const EdgeList full = GenerateRmat(300, 2400, {.seed = 241});
  const StreamSplit split = SplitForStreaming(full, 0.5, 242);

  MutableGraph shadow(split.initial);
  UpdateStream stream(split.held_back, 243);
  std::vector<MutationBatch> batches;
  for (size_t i = 0; i < 10; ++i) {
    MutationBatch batch = shadow.num_edges() > 200
                              ? stream.NextBatch(shadow, {.size = 48, .add_fraction = 0.3})
                              : stream.NextBatch(shadow, {.size = 48, .add_fraction = 0.8});
    shadow.ApplyBatch(batch);
    batches.push_back(std::move(batch));
  }

  MutableGraph graph(split.initial);
  const PageRank algo(0.85, 1e-12);
  GraphBoltEngine<PageRank> engine(&graph, algo);
  engine.InitialCompute();
  engine.EnterAsyncMode();
  for (const MutationBatch& batch : batches) {
    engine.AsyncApplyMutations(batch);
  }
  EXPECT_LE(StepToFixedPoint(&engine), 1e-12);

  MutableGraph final_graph(shadow.ToEdgeList());
  GraphBoltEngine<PageRank> reference(&final_graph, algo, {.max_iterations = 100000, .run_to_convergence = true});
  reference.InitialCompute();
  ExpectRelativeClose(engine.values(), reference.values(), 1e-9);
}

// ----- Engine layer: the reconciling barrier is bitwise ----------------------

// One pool thread makes every parallel reduction order deterministic, so
// "bitwise-identical to a fresh InitialCompute" is testable with ==. The
// async window deliberately stops short of convergence: reconciliation must
// not depend on the async values having settled.
TEST(AsyncReconcile, RestoresBitwiseBspState) {
  TaskArena::SetNumThreads(1);
  const EdgeList full = GenerateRmat(350, 2800, {.seed = 251});
  const StreamSplit split = SplitForStreaming(full, 0.6, 252);

  MutableGraph shadow(split.initial);
  const std::vector<MutationBatch> batches =
      MakeBatches(&shadow, split.held_back, /*count=*/8, /*batch_size=*/48, 253);

  MutableGraph graph(split.initial);
  GraphBoltEngine<PageRank> engine(&graph, PageRank{});
  engine.InitialCompute();
  engine.EnterAsyncMode();
  for (const MutationBatch& batch : batches) {
    engine.AsyncApplyMutations(batch);
    engine.AsyncStep(/*budget=*/64);  // partial rounds only: stay unconverged
  }

  engine.ExitAsyncReconcile();
  EXPECT_FALSE(engine.async_mode());
  EXPECT_EQ(engine.AsyncResidual(), 0.0);

  MutableGraph final_graph(shadow.ToEdgeList());
  GraphBoltEngine<PageRank> fresh(&final_graph, PageRank{});
  fresh.InitialCompute();
  const auto& values = engine.values();
  const auto& want = fresh.values();
  ASSERT_EQ(values.size(), want.size());
  for (size_t v = 0; v < values.size(); ++v) {
    ASSERT_EQ(values[v], want[v]) << "vertex " << v;
  }
  // The dependency store is live again: a BSP refinement must work and track
  // the same horizon a fresh engine would.
  ASSERT_EQ(engine.store().tracked_levels(), fresh.store().tracked_levels());
}

// Re-entry is idempotent: enter/exit/enter leaves a consistent engine.
TEST(AsyncReconcile, ReentryAfterReconcile) {
  TaskArena::SetNumThreads(1);
  const EdgeList full = GenerateRmat(200, 1400, {.seed = 261});
  const StreamSplit split = SplitForStreaming(full, 0.5, 262);
  const std::vector<MutationBatch> chunks = AdditionChunks(split.held_back, 32);
  ASSERT_GE(chunks.size(), 2u);

  MutableGraph graph(split.initial);
  GraphBoltEngine<PageRank> engine(&graph, PageRank{});
  engine.InitialCompute();

  engine.EnterAsyncMode();
  engine.EnterAsyncMode();  // no-op, not a crash
  engine.AsyncApplyMutations(chunks[0]);
  engine.ExitAsyncReconcile();

  engine.EnterAsyncMode();
  engine.AsyncApplyMutations(chunks[1]);
  EXPECT_GE(engine.AsyncResidual(), 0.0);
  engine.ExitAsyncReconcile();
  EXPECT_FALSE(engine.async_mode());

  MutableGraph final_graph(graph.ToEdgeList());
  GraphBoltEngine<PageRank> fresh(&final_graph, PageRank{});
  fresh.InitialCompute();
  const auto& values = engine.values();
  for (size_t v = 0; v < values.size(); ++v) {
    ASSERT_EQ(values[v], fresh.values()[v]) << "vertex " << v;
  }
}

// ----- Driver layer: degrade-flip, async-fresh serving, self-clear -----------

// Floods a capacity-1 queue under zero governor thresholds so the worker
// observes queued pressure, flips the engine async, and serves degraded
// queries from continuously-updating values. The test samples stats between
// flood bursts and requires *progression*: two async-fresh samples with
// strictly increasing async_applies. Once the flood stops, the idle
// AsyncTick drains pressure and the mode self-clears through a reconciling
// barrier; the final exact barrier then compares against a from-scratch
// engine on the full graph.
TEST(AsyncDriver, DegradeFlipServesFreshThenSelfClears) {
  TaskArena::SetNumThreads(1);
  const EdgeList full = GenerateRmat(800, 30000, {.seed = 271});
  const StreamSplit split = SplitForStreaming(full, 0.2, 272);
  const std::vector<MutationBatch> chunks = AdditionChunks(split.held_back, 100);
  ASSERT_GT(chunks.size(), 64u);

  MutableGraph graph(split.initial);
  GraphBoltEngine<PageRank> engine(&graph, PageRank{});
  engine.InitialCompute();
  using Driver = StreamDriver<GraphBoltEngine<PageRank>>;
  Driver driver(&engine, {.batch_size = 1u << 20,
                          // Short flush interval: idle polls run AsyncTick
                          // often, which is what self-clears the mode.
                          .flush_interval_seconds = 0.005,
                          .max_pending_batches = 1,
                          .overflow = Driver::OverflowPolicy::kDegrade,
                          .coalesce = false,
                          .async_mode = AsyncModePolicy::kDegradeOnly,
                          .async_step_budget = 256,
                          .governor = {.degrade_pressure_seconds = 0.0,
                                       .recover_pressure_seconds = 0.0}});

  // Warm the latency EWMA with one normally-applied batch.
  ASSERT_EQ(driver.IngestBatch(chunks[0]), chunks[0].size());
  driver.Flush();
  driver.PrepQuery();
  ASSERT_GT(driver.stats().apply_ewma_seconds, 0.0);

  // Paced flood: one chunk every ~300us against a ~1.5ms apply keeps the
  // queue non-empty at every governor update, so the degrade window stays
  // open for the whole stream. (A tight unpaced loop starves the worker on
  // the driver mutex instead, and the degrade gutter then coalesces the
  // whole backlog into one batch — no sustained pressure at all.) Sampling
  // queries only while degraded: a degraded PrepQuery serves immediately
  // without draining the queue, so the async window survives the sampling;
  // a barrier here would drain the backlog and clear the mode under the
  // test's feet. Progression = two async-fresh samples with strictly
  // increasing async_applies.
  uint64_t fresh_samples = 0;
  uint64_t last_applies = 0;
  bool progressed = false;
  bool saw_residual = false;
  for (size_t next = 1; next < chunks.size(); ++next) {
    ASSERT_EQ(driver.IngestBatch(chunks[next]), chunks[next].size());
    driver.Flush();
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    if (!driver.degraded()) {
      continue;
    }
    Timer wall;
    EXPECT_TRUE(driver.PrepQuery());
    EXPECT_LT(wall.Seconds(), 0.2);  // degraded serve never blocks
    const EngineStats stats = driver.stats();
    if (stats.async_fresh_queries > fresh_samples) {
      // This degraded query was served from live async values.
      if (fresh_samples > 0 && stats.async_applies > last_applies) {
        progressed = true;  // the served values moved between samples
      }
      fresh_samples = stats.async_fresh_queries;
      last_applies = stats.async_applies;
      saw_residual = saw_residual || stats.async_residual > 0.0;
    }
  }
  EXPECT_TRUE(progressed) << "no freshness progression across degraded queries";
  EXPECT_TRUE(saw_residual) << "async-fresh serving never reported a residual bound";

  // Flood over: idle AsyncTicks drain pressure and self-clear the mode.
  for (int i = 0; i < 1000 && driver.degraded(); ++i) {
    std::this_thread::sleep_for(kTick);
  }
  EXPECT_FALSE(driver.degraded());
  driver.PrepQuery();  // exact barrier; reconciles if still engaged

  const EngineStats stats = driver.stats();
  EXPECT_GE(stats.async_entries, 1u);
  EXPECT_GE(stats.async_applies, 1u);
  EXPECT_GE(stats.async_fresh_queries, 2u);
  EXPECT_GE(stats.async_reconciles, 1u);
  EXPECT_EQ(stats.async_residual, 0.0);
  EXPECT_EQ(stats.mutations_dropped, 0u);

  // Post-barrier state: reconciles recompute from scratch and BSP refines
  // exactly, so the values sit within float-reassociation distance of a
  // from-scratch engine on the full graph (the refinement_test bound).
  MutableGraph final_graph(full);
  GraphBoltEngine<PageRank> fresh(&final_graph, PageRank{});
  fresh.InitialCompute();
  EXPECT_LT(MaxGap(driver.QuerySnapshot(), fresh.values()), 1e-6);
}

// kOff never flips the engine, no matter the pressure.
TEST(AsyncDriver, PolicyOffNeverEngages) {
  TaskArena::SetNumThreads(1);
  const EdgeList full = GenerateRmat(300, 4000, {.seed = 281});
  const StreamSplit split = SplitForStreaming(full, 0.4, 282);
  const std::vector<MutationBatch> chunks = AdditionChunks(split.held_back, 8);
  ASSERT_GT(chunks.size(), 16u);

  MutableGraph graph(split.initial);
  GraphBoltEngine<PageRank> engine(&graph, PageRank{});
  engine.InitialCompute();
  using Driver = StreamDriver<GraphBoltEngine<PageRank>>;
  Driver driver(&engine, {.batch_size = 1u << 20,
                          .flush_interval_seconds = 0.005,
                          .max_pending_batches = 1,
                          .overflow = Driver::OverflowPolicy::kDegrade,
                          .coalesce = false,
                          .async_mode = AsyncModePolicy::kOff,
                          .governor = {.degrade_pressure_seconds = 0.0,
                                       .recover_pressure_seconds = 0.0}});
  for (const MutationBatch& chunk : chunks) {
    ASSERT_EQ(driver.IngestBatch(chunk), chunk.size());
    driver.Flush();
  }
  driver.PrepQuery();
  for (int i = 0; i < 1000 && driver.degraded(); ++i) {
    std::this_thread::sleep_for(kTick);
  }
  driver.PrepQuery();
  const EngineStats stats = driver.stats();
  EXPECT_EQ(stats.async_entries, 0u);
  EXPECT_EQ(stats.async_applies, 0u);
  EXPECT_EQ(stats.async_fresh_queries, 0u);
  EXPECT_FALSE(engine.async_mode());
}

// ----- Driver layer: the sharded protocol ------------------------------------

// Same flood on the multi-lane driver: lane applies flip the shared engine
// under the global engine mutex, async applies keep the cross-lane journal
// order (observer under journal_mu_), and the mode self-clears through one
// reconciling barrier.
TEST(AsyncSharded, FloodEngagesAndSelfClears) {
  TaskArena::SetNumThreads(1);
  const EdgeList full = GenerateRmat(800, 30000, {.seed = 291});
  const StreamSplit split = SplitForStreaming(full, 0.2, 292);
  const std::vector<MutationBatch> chunks = AdditionChunks(split.held_back, 100);
  ASSERT_GT(chunks.size(), 64u);

  MutableGraph graph(split.initial);
  GraphBoltEngine<PageRank> engine(&graph, PageRank{});
  engine.InitialCompute();
  DriverConfig config;
  config.shards = 2;
  config.batch_size = 1u << 20;
  config.flush_interval_seconds = 0.005;
  config.max_pending_batches = 1;
  config.overflow = OverflowPolicy::kDegrade;
  config.coalesce = false;
  config.governor = {.degrade_pressure_seconds = 0.0, .recover_pressure_seconds = 0.0};
  config.async_mode = AsyncModePolicy::kDegradeOnly;
  config.async_step_budget = 256;
  ShardedDriver<GraphBoltEngine<PageRank>> driver(&engine, config);

  // Warm the EWMA, then flood until the async tier engages (or the stream
  // runs out — which would fail the assertions below).
  ASSERT_EQ(driver.IngestBatch(chunks[0]), chunks[0].size());
  driver.Flush();
  driver.PrepQuery();
  // Same pacing rationale as the unsharded flood: a chunk every ~300us
  // against millisecond lane applies keeps lane queues non-empty, so the
  // governor stays degraded and the async window stays open. stats() needs
  // no barrier, so sampling never drains the backlog.
  for (size_t next = 1; next < chunks.size(); ++next) {
    ASSERT_EQ(driver.IngestBatch(chunks[next]), chunks[next].size());
    driver.Flush();
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  }
  EXPECT_GE(driver.stats().async_applies, 1u)
      << "sharded flood never engaged the async tier";

  for (int i = 0; i < 1000 && driver.degraded(); ++i) {
    std::this_thread::sleep_for(kTick);
  }
  EXPECT_FALSE(driver.degraded());
  driver.PrepQuery();

  const EngineStats stats = driver.stats();
  EXPECT_GE(stats.async_entries, 1u);
  EXPECT_GE(stats.async_applies, 1u);
  EXPECT_GE(stats.async_reconciles, 1u);
  EXPECT_EQ(stats.async_residual, 0.0);
  EXPECT_EQ(stats.mutations_dropped, 0u);
  EXPECT_FALSE(engine.async_mode());

  MutableGraph final_graph(full);
  GraphBoltEngine<PageRank> fresh(&final_graph, PageRank{});
  fresh.InitialCompute();
  EXPECT_LT(MaxGap(driver.QuerySnapshot(), fresh.values()), 1e-6);
}

}  // namespace
}  // namespace graphbolt

// Property-based sweeps (parameterized gtest): for random graphs × batch
// shapes × engine configurations, the invariant under test is always the
// same — the incrementally maintained result equals a from-scratch run on
// the final snapshot.
#include <gtest/gtest.h>

#include <tuple>

#include "src/algorithms/label_propagation.h"
#include "src/algorithms/pagerank.h"
#include "src/algorithms/sssp.h"
#include "src/algorithms/triangle_counting.h"
#include "src/core/graphbolt_engine.h"
#include "src/driver/stream_driver.h"
#include "src/engine/ligra_engine.h"
#include "src/engine/reset_engine.h"
#include "src/fault/checkpoint.h"
#include "src/graph/generators.h"
#include "src/parallel/task_arena.h"
#include "src/stream/update_stream.h"
#include "src/util/random.h"
#include "tests/test_util.h"

namespace graphbolt {
namespace {

// ----- PageRank sweep: seed × batch size × add fraction -------------------------

using PagerankParam = std::tuple<uint64_t /*seed*/, size_t /*batch*/, double /*add_fraction*/>;

class PagerankSweep : public testing::TestWithParam<PagerankParam> {};

TEST_P(PagerankSweep, RefinementEqualsRestart) {
  const auto [seed, batch_size, add_fraction] = GetParam();
  EdgeList full = GenerateRmat(500, 4000, {.seed = seed});
  StreamSplit split = SplitForStreaming(full, 0.5, seed + 1);
  MutableGraph g1(split.initial);
  MutableGraph g2(split.initial);
  GraphBoltEngine<PageRank> bolt(&g1, PageRank{});
  LigraEngine<PageRank> ligra(&g2, PageRank{});
  bolt.InitialCompute();
  ligra.InitialCompute();
  UpdateStream stream(split.held_back, seed + 2);
  for (int round = 0; round < 3; ++round) {
    const MutationBatch batch =
        stream.NextBatch(g1, {.size = batch_size, .add_fraction = add_fraction});
    bolt.ApplyMutations(batch);
    ligra.ApplyMutations(batch);
    ASSERT_LT(MaxGap(bolt.values(), ligra.values()), 1e-7)
        << "seed=" << seed << " batch=" << batch_size << " round=" << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PagerankSweep,
                         testing::Combine(testing::Values(201, 202, 203, 204),
                                          testing::Values(1, 10, 100),
                                          testing::Values(0.0, 0.5, 1.0)));

// ----- History sweep: horizontal pruning depth ----------------------------------

class HistorySweep : public testing::TestWithParam<uint32_t> {};

TEST_P(HistorySweep, HybridExecutionStaysExact) {
  const uint32_t history = GetParam();
  EdgeList full = GenerateRmat(500, 4000, {.seed = 210});
  StreamSplit split = SplitForStreaming(full, 0.5, 211);
  MutableGraph g1(split.initial);
  MutableGraph g2(split.initial);
  GraphBoltEngine<PageRank> bolt(&g1, PageRank{}, {.max_iterations = 10, .history_size = history});
  LigraEngine<PageRank> ligra(&g2, PageRank{}, {.max_iterations = 10});
  bolt.InitialCompute();
  ligra.InitialCompute();
  UpdateStream stream(split.held_back, 212);
  for (int round = 0; round < 3; ++round) {
    const MutationBatch batch = stream.NextBatch(g1, {.size = 25, .add_fraction = 0.6});
    bolt.ApplyMutations(batch);
    ligra.ApplyMutations(batch);
    ASSERT_LT(MaxGap(bolt.values(), ligra.values()), 1e-7)
        << "history=" << history << " round=" << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, HistorySweep, testing::Values(1u, 2u, 4u, 7u, 10u));

// ----- Topology sweep: refinement across structural extremes ---------------------

enum class Topology { kCycle, kChain, kStar, kGrid, kComplete };

class TopologySweep : public testing::TestWithParam<Topology> {
 protected:
  static EdgeList Make(Topology t) {
    switch (t) {
      case Topology::kCycle:
        return GenerateCycle(64);
      case Topology::kChain:
        return GenerateChain(64);
      case Topology::kStar:
        return GenerateStar(64);
      case Topology::kGrid:
        return GenerateGrid(8, 8);
      case Topology::kComplete:
        return GenerateComplete(16);
    }
    return {};
  }
};

TEST_P(TopologySweep, PagerankRefinementEqualsRestart) {
  EdgeList list = Make(GetParam());
  MutableGraph g1(list);
  MutableGraph g2(list);
  GraphBoltEngine<PageRank> bolt(&g1, PageRank{});
  LigraEngine<PageRank> ligra(&g2, PageRank{});
  bolt.InitialCompute();
  ligra.InitialCompute();
  Rng rng(300);
  for (int round = 0; round < 4; ++round) {
    MutationBatch batch;
    const VertexId n = g1.num_vertices();
    for (int i = 0; i < 6; ++i) {
      const auto src = static_cast<VertexId>(rng.NextBounded(n));
      const auto dst = static_cast<VertexId>(rng.NextBounded(n));
      batch.push_back(rng.NextDouble() < 0.5 ? EdgeMutation::Add(src, dst)
                                             : EdgeMutation::Delete(src, dst));
    }
    bolt.ApplyMutations(batch);
    ligra.ApplyMutations(batch);
    ASSERT_LT(MaxGap(bolt.values(), ligra.values()), 1e-8) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, TopologySweep,
                         testing::Values(Topology::kCycle, Topology::kChain, Topology::kStar,
                                         Topology::kGrid, Topology::kComplete));

// ----- Triangle counting sweep ----------------------------------------------------

using TriangleParam = std::tuple<uint64_t /*seed*/, size_t /*batch*/>;

class TriangleSweep : public testing::TestWithParam<TriangleParam> {};

TEST_P(TriangleSweep, IncrementalCountEqualsRecount) {
  const auto [seed, batch_size] = GetParam();
  EdgeList full = GenerateRmat(300, 3000, {.seed = seed});
  StreamSplit split = SplitForStreaming(full, 0.5, seed + 1);
  MutableGraph graph(split.initial);
  TriangleCountingEngine engine(&graph);
  engine.InitialCompute();
  UpdateStream stream(split.held_back, seed + 2);
  for (int round = 0; round < 4; ++round) {
    const MutationBatch batch = stream.NextBatch(graph, {.size = batch_size, .add_fraction = 0.55});
    engine.ApplyMutations(batch);
    ASSERT_EQ(engine.count(), CountTriangles(graph))
        << "seed=" << seed << " batch=" << batch_size << " round=" << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TriangleSweep,
                         testing::Combine(testing::Values(220, 221, 222),
                                          testing::Values(1, 20, 200)));

// ----- SSSP sweep: sources × targeting ---------------------------------------------

using SsspParam = std::tuple<VertexId /*source*/, MutationTargeting>;

class SsspSweep : public testing::TestWithParam<SsspParam> {};

TEST_P(SsspSweep, RefinementEqualsRestart) {
  const auto [source, targeting] = GetParam();
  EdgeList full = GenerateRmat(400, 3500, {.seed = 230, .assign_random_weights = true});
  StreamSplit split = SplitForStreaming(full, 0.5, 231);
  MutableGraph g1(split.initial);
  MutableGraph g2(split.initial);
  GraphBoltEngine<Sssp> bolt(&g1, Sssp(source),
                             {.max_iterations = 256, .run_to_convergence = true});
  LigraEngine<Sssp> ligra(&g2, Sssp(source),
                          {.max_iterations = 256, .run_to_convergence = true});
  bolt.InitialCompute();
  ligra.InitialCompute();
  UpdateStream stream(split.held_back, 232);
  for (int round = 0; round < 3; ++round) {
    const MutationBatch batch =
        stream.NextBatch(g1, {.size = 20, .add_fraction = 0.5, .targeting = targeting});
    bolt.ApplyMutations(batch);
    ligra.ApplyMutations(batch);
    ASSERT_LT(MaxGap(bolt.values(), ligra.values()), 1e-9) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SsspSweep,
                         testing::Combine(testing::Values(0u, 7u, 42u),
                                          testing::Values(MutationTargeting::kUniform,
                                                          MutationTargeting::kHighDegree,
                                                          MutationTargeting::kLowDegree)));

// ----- Label propagation sweep ------------------------------------------------------

class LabelSweep : public testing::TestWithParam<double /*seed_fraction*/> {};

TEST_P(LabelSweep, RefinementEqualsRestart) {
  const double seed_fraction = GetParam();
  EdgeList full = GenerateRmat(400, 3500, {.seed = 240, .assign_random_weights = true});
  StreamSplit split = SplitForStreaming(full, 0.5, 241);
  LabelPropagation<2> algo(full.num_vertices(), seed_fraction, 242);
  MutableGraph g1(split.initial);
  MutableGraph g2(split.initial);
  GraphBoltEngine<LabelPropagation<2>> bolt(&g1, algo);
  LigraEngine<LabelPropagation<2>> ligra(&g2, algo);
  bolt.InitialCompute();
  ligra.InitialCompute();
  UpdateStream stream(split.held_back, 243);
  for (int round = 0; round < 3; ++round) {
    const MutationBatch batch = stream.NextBatch(g1, {.size = 30, .add_fraction = 0.6});
    bolt.ApplyMutations(batch);
    ligra.ApplyMutations(batch);
    ASSERT_LT(MaxGap(bolt.values(), ligra.values()), 1e-7)
        << "fraction=" << seed_fraction << " round=" << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Fractions, LabelSweep, testing::Values(0.0, 0.05, 0.25, 0.9));

// ----- Recovery replay sweep ----------------------------------------------------
//
// Two properties of the checkpoint+WAL pair, across random streams:
//  1. What the WAL records is what was applied — with gutter coalescing on,
//     the journal holds the coalesced batches, so restore+replay lands
//     bitwise on the live engine's state.
//  2. Replaying a checkpoint tail twice equals replaying it once: batch
//     application is last-wins per (src, dst), so a repeated full tail
//     converges to the same graph, and a from-scratch engine to the same
//     values.

class RecoveryReplaySweep : public testing::TestWithParam<uint64_t> {};

TEST_P(RecoveryReplaySweep, CoalescedJournalRecoversBitwise) {
  TaskArena::SetNumThreads(1);  // bitwise comparison needs one summation order
  const uint64_t seed = GetParam();
  ScopedTempDir tmp;
  EdgeList full = GenerateRmat(400, 3200, {.seed = seed});
  StreamSplit split = SplitForStreaming(full, 0.5, seed + 1);

  MutableGraph graph(split.initial);
  GraphBoltEngine<PageRank> engine(&graph, PageRank{});
  engine.InitialCompute();
  Checkpointer<GraphBoltEngine<PageRank>> checkpointer(
      &engine, &graph, {.directory = tmp.path(), .cadence_batches = 4});
  {
    StreamDriver<GraphBoltEngine<PageRank>> driver(
        &engine, {.batch_size = 48, .flush_interval_seconds = 3600.0, .coalesce = true},
        &checkpointer);
    ASSERT_TRUE(driver.CheckpointNow());
    UpdateStream stream(split.held_back, seed + 2);
    // Batches are drawn against a shadow: the driver's worker writes `graph`.
    MutableGraph shadow(split.initial);
    for (int round = 0; round < 10; ++round) {
      const MutationBatch batch = stream.NextBatch(shadow, {.size = 30, .add_fraction = 0.6});
      shadow.ApplyBatch(batch);
      for (size_t i = 0; i < batch.size(); ++i) {
        ASSERT_TRUE(driver.Ingest(batch[i]));
        if (i % 7 == 0) {
          ASSERT_TRUE(driver.Ingest(batch[i]));  // duplicate: gutter coalesces it
        }
      }
    }
    driver.Stop();
    EXPECT_GT(driver.stats().mutations_coalesced, 0u);
  }
  const auto want_edges = graph.ToEdgeList().edges();
  const auto want_values = engine.values();

  MutableGraph cold_graph;
  GraphBoltEngine<PageRank> cold(&cold_graph, PageRank{});
  Checkpointer<GraphBoltEngine<PageRank>> restorer(&cold, &cold_graph,
                                                   {.directory = tmp.path()});
  uint64_t seq = 0;
  ASSERT_TRUE(restorer.RestoreLatest(&seq));
  restorer.ReplayWal(seq, [&](uint64_t, MutationBatch&& batch) { cold.ApplyMutations(batch); });
  EXPECT_EQ(cold_graph.ToEdgeList().edges(), want_edges);
  EXPECT_EQ(cold.values(), want_values);  // bitwise: identical history from seq
}

TEST_P(RecoveryReplaySweep, WalTailReplayedTwiceEqualsOnce) {
  TaskArena::SetNumThreads(1);
  const uint64_t seed = GetParam();
  ScopedTempDir tmp;
  EdgeList full = GenerateRmat(400, 3200, {.seed = seed + 100});
  StreamSplit split = SplitForStreaming(full, 0.5, seed + 101);

  // ResetEngine: values are a pure function of the final graph, so the
  // idempotence claim can be checked bitwise.
  MutableGraph graph(split.initial);
  ResetEngine<PageRank> engine(&graph, PageRank{});
  engine.InitialCompute();
  Checkpointer<ResetEngine<PageRank>> checkpointer(
      &engine, &graph, {.directory = tmp.path(), .cadence_batches = 5});
  {
    StreamDriver<ResetEngine<PageRank>> driver(
        &engine, {.batch_size = 1u << 20, .flush_interval_seconds = 3600.0, .coalesce = false},
        &checkpointer);
    ASSERT_TRUE(driver.CheckpointNow());
    UpdateStream stream(split.held_back, seed + 102);
    // Batches are drawn against a shadow: the driver's worker writes `graph`.
    MutableGraph shadow(split.initial);
    for (int round = 0; round < 12; ++round) {
      const MutationBatch batch = stream.NextBatch(shadow, {.size = 30, .add_fraction = 0.6});
      shadow.ApplyBatch(batch);
      ASSERT_EQ(driver.IngestBatch(batch), batch.size());
      driver.Flush();
    }
    driver.Stop();
  }
  const auto want_edges = graph.ToEdgeList().edges();
  const auto want_values = engine.values();

  MutableGraph cold_graph;
  ResetEngine<PageRank> cold(&cold_graph, PageRank{});
  Checkpointer<ResetEngine<PageRank>> restorer(&cold, &cold_graph, {.directory = tmp.path()});
  uint64_t seq = 0;
  ASSERT_TRUE(restorer.RestoreLatest(&seq));
  const auto apply = [&](uint64_t, MutationBatch&& batch) { cold.ApplyMutations(batch); };
  const size_t once = restorer.ReplayWal(seq, apply);
  ASSERT_GE(once, 1u);
  EXPECT_EQ(cold_graph.ToEdgeList().edges(), want_edges);
  EXPECT_EQ(cold.values(), want_values);

  // The whole tail again, without restoring in between: last-wins batch
  // semantics make the second pass land on the identical state.
  const size_t twice = restorer.ReplayWal(seq, apply);
  EXPECT_EQ(twice, once);
  EXPECT_EQ(cold_graph.ToEdgeList().edges(), want_edges);
  EXPECT_EQ(cold.values(), want_values);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryReplaySweep, testing::Values(301u, 302u, 303u));

}  // namespace
}  // namespace graphbolt

// Tests targeting the dependency-driven refinement machinery itself:
// the Figure 2 motivation (naive reuse is wrong, refinement is right),
// dependency-store bookkeeping, and refinement edge cases.
#include <gtest/gtest.h>

#include "src/algorithms/belief_propagation.h"
#include "src/algorithms/coem.h"
#include "src/algorithms/collaborative_filtering.h"
#include "src/algorithms/label_propagation.h"
#include "src/algorithms/pagerank.h"
#include "src/algorithms/personalized_pagerank.h"
#include "src/core/dependency_store.h"
#include "src/core/graphbolt_engine.h"
#include "src/engine/ligra_engine.h"
#include "src/graph/generators.h"
#include "src/stream/update_stream.h"
#include "tests/test_util.h"

namespace graphbolt {
namespace {

// ----- Figure 2 motivation -----------------------------------------------------

TEST(Motivation, NaiveReuseProducesWrongResults) {
  // §2.2: starting incremental computation from the old converged values
  // (without refinement) violates BSP semantics and lands on wrong answers.
  EdgeList full = GenerateRmat(800, 6000, {.seed = 80});
  StreamSplit split = SplitForStreaming(full, 0.5, 81);
  MutableGraph g_exact(split.initial);
  MutableGraph g_naive(split.initial);

  LabelPropagation<2> algo(full.num_vertices(), 0.1, 82);
  LigraEngine<LabelPropagation<2>> exact(&g_exact, algo);
  exact.InitialCompute();

  // Naive reuse: run 10 iterations from the PRE-mutation converged values
  // instead of from initial values (S*(GT, R_G) in Figure 1).
  LigraEngine<LabelPropagation<2>> naive(&g_naive, algo);
  naive.InitialCompute();

  UpdateStream stream(split.held_back, 83);
  const MutationBatch batch = stream.NextBatch(g_exact, {.size = 100, .add_fraction = 0.6});
  exact.ApplyMutations(batch);  // restart: correct S*(GT, I)

  // Hand-rolled naive reuse on the same batch.
  g_naive.ApplyBatch(batch);
  std::vector<std::array<double, 2>> stale = naive.values();
  {
    // Continue iterating from stale values on the mutated graph.
    auto contexts = ComputeVertexContexts(g_naive);
    for (int iter = 0; iter < 10; ++iter) {
      std::vector<std::array<double, 2>> next(g_naive.num_vertices());
      for (VertexId v = 0; v < g_naive.num_vertices(); ++v) {
        auto agg = algo.IdentityAggregate();
        const auto in_nbrs = g_naive.InNeighbors(v);
        const auto in_wts = g_naive.InWeights(v);
        for (size_t i = 0; i < in_nbrs.size(); ++i) {
          algo.AggregateAtomic(&agg,
                               algo.ContributionOf(in_nbrs[i], stale[in_nbrs[i]], in_wts[i],
                                                   contexts[in_nbrs[i]]));
        }
        next[v] = algo.VertexCompute(v, agg, contexts[v]);
      }
      stale.swap(next);
    }
  }
  // The naive result must differ measurably from the exact one (Table 1),
  // while GraphBolt matches it (tested throughout this suite).
  EXPECT_GT(MaxGap(stale, exact.values()), 1e-4);
}

TEST(Motivation, GraphBoltMatchesExactWhereNaiveDiverges) {
  EdgeList full = GenerateRmat(800, 6000, {.seed = 80});
  StreamSplit split = SplitForStreaming(full, 0.5, 81);
  MutableGraph g_exact(split.initial);
  MutableGraph g_bolt(split.initial);

  LabelPropagation<2> algo(full.num_vertices(), 0.1, 82);
  LigraEngine<LabelPropagation<2>> exact(&g_exact, algo);
  GraphBoltEngine<LabelPropagation<2>> bolt(&g_bolt, algo);
  exact.InitialCompute();
  bolt.InitialCompute();

  UpdateStream stream(split.held_back, 83);
  const MutationBatch batch = stream.NextBatch(g_exact, {.size = 100, .add_fraction = 0.6});
  exact.ApplyMutations(batch);
  bolt.ApplyMutations(batch);
  EXPECT_LT(MaxGap(bolt.values(), exact.values()), 1e-7);
}

// ----- Dependency store ----------------------------------------------------------

TEST(DependencyStore, SnapshotsInOrder) {
  DependencyStore<double> store;
  store.Reset(4, 10);
  store.SnapshotLevel(1, {1, 2, 3, 4}, AtomicBitset(4));
  store.SnapshotLevel(2, {5, 6, 7, 8}, AtomicBitset(4));
  EXPECT_EQ(store.tracked_levels(), 2u);
  EXPECT_EQ(store.total_levels(), 2u);
  EXPECT_DOUBLE_EQ(store.At(1, 2), 3.0);
  EXPECT_DOUBLE_EQ(store.At(2, 0), 5.0);
}

TEST(DependencyStore, HorizontalPruningDropsAggregates) {
  DependencyStore<double> store;
  store.Reset(2, 1);  // history of one level
  store.SnapshotLevel(1, {1, 2}, AtomicBitset(2));
  store.SnapshotLevel(2, {3, 4}, AtomicBitset(2));
  EXPECT_EQ(store.tracked_levels(), 1u);
  EXPECT_EQ(store.total_levels(), 2u);  // changed bits kept for both
  EXPECT_TRUE(store.IsTracked(1));
  EXPECT_FALSE(store.IsTracked(2));
}

TEST(DependencyStore, VerticalPruningAccounting) {
  DependencyStore<double> store;
  store.Reset(3, 10);
  store.SnapshotLevel(1, {1, 2, 3}, AtomicBitset(3));
  // Only vertex 0 changes at level 2: one fresh logical entry.
  store.SnapshotLevel(2, {9, 2, 3}, AtomicBitset(3));
  EXPECT_EQ(store.logical_entries(), 3u + 1u);
  // Nothing changes at level 3.
  store.SnapshotLevel(3, {9, 2, 3}, AtomicBitset(3));
  EXPECT_EQ(store.logical_entries(), 4u);
  EXPECT_GT(store.logical_bytes(), 4u * sizeof(double));
}

TEST(DependencyStore, GrowVerticesExtendsLevels) {
  DependencyStore<double> store;
  store.Reset(2, 10);
  AtomicBitset bits(2);
  bits.Set(1);
  store.SnapshotLevel(1, {1, 2}, std::move(bits));
  store.GrowVertices(4, 0.0);
  EXPECT_EQ(store.num_vertices(), 4u);
  EXPECT_DOUBLE_EQ(store.At(1, 3), 0.0);
  EXPECT_TRUE(store.ChangedAt(1).Test(1));
  EXPECT_FALSE(store.ChangedAt(1).Test(3));
}

TEST(DependencyStore, ChangedBitsPerLevel) {
  DependencyStore<double> store;
  store.Reset(3, 10);
  AtomicBitset bits1(3);
  bits1.Set(0);
  store.SnapshotLevel(1, {1, 2, 3}, std::move(bits1));
  AtomicBitset bits2(3);
  bits2.Set(2);
  store.SnapshotLevel(2, {1, 2, 4}, std::move(bits2));
  EXPECT_TRUE(store.ChangedAt(1).Test(0));
  EXPECT_FALSE(store.ChangedAt(1).Test(2));
  EXPECT_TRUE(store.ChangedAt(2).Test(2));
}

// ----- Refinement edge cases -------------------------------------------------------

TEST(Refinement, StoreReflectsRefinedStateAcrossBatches) {
  // After a batch, the store must describe the new graph's run exactly, so a
  // second batch refines from a consistent base. Verified by checking the
  // refined engine against a fresh engine built on the mutated graph.
  EdgeList full = GenerateRmat(500, 4000, {.seed = 84});
  StreamSplit split = SplitForStreaming(full, 0.5, 85);
  MutableGraph g1(split.initial);
  GraphBoltEngine<PageRank> bolt(&g1, PageRank{});
  bolt.InitialCompute();

  UpdateStream stream(split.held_back, 86);
  for (int round = 0; round < 3; ++round) {
    const MutationBatch batch = stream.NextBatch(g1, {.size = 40, .add_fraction = 0.6});
    bolt.ApplyMutations(batch);
  }
  // Fresh engine on the final snapshot: the refined store must agree level
  // by level through its tracked aggregations' derived values.
  MutableGraph g2(g1.ToEdgeList());
  GraphBoltEngine<PageRank> fresh(&g2, PageRank{});
  fresh.InitialCompute();
  EXPECT_LT(MaxGap(bolt.values(), fresh.values()), 1e-7);
  ASSERT_EQ(bolt.store().tracked_levels(), fresh.store().tracked_levels());
  for (uint32_t level = 1; level <= fresh.store().tracked_levels(); ++level) {
    double gap = 0.0;
    for (VertexId v = 0; v < g1.num_vertices(); ++v) {
      gap = std::max(gap, std::fabs(bolt.store().At(level, v) - fresh.store().At(level, v)));
    }
    EXPECT_LT(gap, 1e-7) << "level " << level;
  }
}

TEST(Refinement, DeleteOnlyBatch) {
  EdgeList list = GenerateRmat(400, 3000, {.seed = 87});
  MutableGraph g1(list);
  MutableGraph g2(list);
  GraphBoltEngine<PageRank> bolt(&g1, PageRank{});
  bolt.InitialCompute();
  LigraEngine<PageRank> ligra(&g2, PageRank{});
  ligra.InitialCompute();

  // Delete the first 30 edges of the export.
  MutationBatch batch;
  const EdgeList snapshot = g1.ToEdgeList();
  for (size_t i = 0; i < 30 && i < snapshot.num_edges(); ++i) {
    batch.push_back(EdgeMutation::Delete(snapshot.edges()[i].src, snapshot.edges()[i].dst));
  }
  bolt.ApplyMutations(batch);
  ligra.ApplyMutations(batch);
  EXPECT_LT(MaxGap(bolt.values(), ligra.values()), 1e-8);
}

TEST(Refinement, AddOnlyBatch) {
  EdgeList full = GenerateRmat(400, 4000, {.seed = 88});
  StreamSplit split = SplitForStreaming(full, 0.6, 89);
  MutableGraph g1(split.initial);
  MutableGraph g2(split.initial);
  GraphBoltEngine<PageRank> bolt(&g1, PageRank{});
  bolt.InitialCompute();
  LigraEngine<PageRank> ligra(&g2, PageRank{});
  ligra.InitialCompute();

  MutationBatch batch;
  for (size_t i = 0; i < 50 && i < split.held_back.size(); ++i) {
    batch.push_back(EdgeMutation::Add(split.held_back[i].src, split.held_back[i].dst,
                                      split.held_back[i].weight));
  }
  bolt.ApplyMutations(batch);
  ligra.ApplyMutations(batch);
  EXPECT_LT(MaxGap(bolt.values(), ligra.values()), 1e-8);
}

TEST(Refinement, AddAndDeleteSameVertexNeighborhood) {
  // Concentrated mutations around one hub stress the transitive pass.
  EdgeList list = GenerateStar(50);
  MutableGraph g1(list);
  MutableGraph g2(list);
  GraphBoltEngine<PageRank> bolt(&g1, PageRank{});
  bolt.InitialCompute();
  LigraEngine<PageRank> ligra(&g2, PageRank{});
  ligra.InitialCompute();

  const MutationBatch batch{
      EdgeMutation::Delete(0, 1), EdgeMutation::Delete(0, 2), EdgeMutation::Add(1, 2),
      EdgeMutation::Add(2, 3),    EdgeMutation::Delete(3, 0),
  };
  bolt.ApplyMutations(batch);
  ligra.ApplyMutations(batch);
  EXPECT_LT(MaxGap(bolt.values(), ligra.values()), 1e-9);
}

TEST(Refinement, MutationsOnEmptyishGraph) {
  // Start from a nearly empty graph; additions dominate everything.
  EdgeList list;
  list.set_num_vertices(10);
  list.Add(0, 1);
  MutableGraph g1(list);
  MutableGraph g2(list);
  GraphBoltEngine<PageRank> bolt(&g1, PageRank{});
  bolt.InitialCompute();
  LigraEngine<PageRank> ligra(&g2, PageRank{});
  ligra.InitialCompute();

  MutationBatch batch;
  for (VertexId v = 0; v < 9; ++v) {
    batch.push_back(EdgeMutation::Add(v, v + 1));
    batch.push_back(EdgeMutation::Add(v + 1, v));
  }
  bolt.ApplyMutations(batch);
  ligra.ApplyMutations(batch);
  EXPECT_LT(MaxGap(bolt.values(), ligra.values()), 1e-9);
}

TEST(Refinement, LargeBatchStillExact) {
  // A batch touching a third of the graph: refinement cost approaches a
  // restart but correctness must hold.
  EdgeList full = GenerateRmat(600, 6000, {.seed = 90});
  StreamSplit split = SplitForStreaming(full, 0.5, 91);
  MutableGraph g1(split.initial);
  MutableGraph g2(split.initial);
  GraphBoltEngine<PageRank> bolt(&g1, PageRank{});
  bolt.InitialCompute();
  LigraEngine<PageRank> ligra(&g2, PageRank{});
  ligra.InitialCompute();

  UpdateStream stream(split.held_back, 92);
  const MutationBatch batch = stream.NextBatch(g1, {.size = 1000, .add_fraction = 0.6});
  bolt.ApplyMutations(batch);
  ligra.ApplyMutations(batch);
  EXPECT_LT(MaxGap(bolt.values(), ligra.values()), 1e-7);
}

TEST(Refinement, StatsReportRefinementWork) {
  EdgeList list = GenerateRmat(400, 3000, {.seed = 93});
  MutableGraph graph(list);
  GraphBoltEngine<PageRank> bolt(&graph, PageRank{});
  bolt.InitialCompute();
  const uint64_t initial_edges = bolt.stats().edges_processed;
  EXPECT_GT(initial_edges, 0u);
  // Find an edge that is actually absent so the batch is not a no-op.
  VertexId dst = 5;
  while (graph.HasEdge(0, dst)) {
    ++dst;
  }
  bolt.ApplyMutations({EdgeMutation::Add(0, dst)});
  EXPECT_GT(bolt.stats().edges_processed, 0u);
  EXPECT_LT(bolt.stats().edges_processed, initial_edges);
  EXPECT_EQ(bolt.stats().iterations, 10u);
  EXPECT_GE(bolt.stats().seconds, 0.0);
  EXPECT_GE(bolt.stats().mutation_seconds, 0.0);
}

// ----- Direction choice: dense levels pull, sparse levels push -------------------

template <typename Algo>
void ExpectMatchesFreshRun(const MutableGraph& graph, const GraphBoltEngine<Algo>& bolt,
                           const Algo& algo, double tolerance, const char* what) {
  MutableGraph fresh_graph(graph.ToEdgeList());
  GraphBoltEngine<Algo> fresh(&fresh_graph, algo);
  fresh.InitialCompute();
  EXPECT_LT(MaxGap(bolt.values(), fresh.values()), tolerance) << what;
}

// Refines one batch whose levels are all dense and then one single-mutation
// batch whose early levels are sparse, checking each against a from-scratch
// InitialCompute on the mutated graph.
template <typename Algo>
void RefineBothDirections(const Algo& algo, uint64_t seed, double tolerance) {
  EdgeList full = GenerateRmat(600, 6000, {.seed = seed, .assign_random_weights = true});
  StreamSplit split = SplitForStreaming(full, 0.5, seed + 1);
  MutableGraph graph(split.initial);
  GraphBoltEngine<Algo> bolt(&graph, algo);
  bolt.InitialCompute();

  // The added edges alone carry more than |E|/20 out-edges of their
  // sources, which stay in the frontier at every level (their degree
  // context changed), so every level takes the pull sweep.
  UpdateStream stream(split.held_back, seed + 2);
  const MutationBatch dense =
      stream.NextBatch(graph, {.size = graph.num_edges() / 8, .add_fraction = 0.6});
  const AppliedMutations applied = bolt.ApplyMutations(dense);
  ASSERT_GT(applied.added.size(), graph.num_edges() / 20);
  ExpectMatchesFreshRun(graph, bolt, algo, tolerance, "dense batch");

  // One edge between two low-degree vertices: level 1's frontier is its two
  // endpoints, far below |E|/20 out-edges, so the early levels push.
  VertexId src = 0;
  VertexId dst = 0;
  for (VertexId u = 0; u < graph.num_vertices() && src == dst; ++u) {
    for (VertexId v = u + 1; v < graph.num_vertices(); ++v) {
      if (graph.OutDegree(u) + graph.OutDegree(v) <= 4 && !graph.HasEdge(u, v)) {
        src = u;
        dst = v;
        break;
      }
    }
  }
  ASSERT_NE(src, dst);
  ASSERT_LT(graph.OutDegree(src) + graph.OutDegree(dst) + 1, graph.num_edges() / 20);
  bolt.ApplyMutations({EdgeMutation::Add(src, dst, 0.5)});
  ExpectMatchesFreshRun(graph, bolt, algo, tolerance, "single mutation");
}

TEST(RefinementDirection, PageRank) { RefineBothDirections(PageRank{}, 120, 1e-7); }

TEST(RefinementDirection, PersonalizedPageRank) {
  RefineBothDirections(PersonalizedPageRank({0, 1, 2}, 600), 121, 1e-7);
}

TEST(RefinementDirection, CoEM) { RefineBothDirections(CoEM(600, 0.08, 122), 122, 1e-7); }

TEST(RefinementDirection, LabelPropagation) {
  RefineBothDirections(LabelPropagation<2>(600, 0.1, 123), 123, 1e-7);
}

TEST(RefinementDirection, BeliefPropagation) {
  RefineBothDirections(BeliefPropagation<3>{}, 124, 1e-6);
}

TEST(RefinementDirection, CollaborativeFiltering) {
  RefineBothDirections(CollaborativeFiltering<4>{}, 125, 1e-5);
}

}  // namespace
}  // namespace graphbolt

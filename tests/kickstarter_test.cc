// Tests for the KickStarter baseline (KickStarterEngine<KsSsspTraits>):
// dependence-tree incremental SSSP.
#include <gtest/gtest.h>

#include "src/algorithms/sssp.h"
#include "src/core/graphbolt_engine.h"
#include "src/graph/generators.h"
#include "src/kickstarter/kickstarter_engine.h"
#include "src/stream/update_stream.h"
#include "tests/test_util.h"

namespace graphbolt {
namespace {

// Reference distances via a GraphBolt convergence run.
std::vector<double> ReferenceDistances(const EdgeList& list, VertexId source) {
  MutableGraph graph(list);
  GraphBoltEngine<Sssp> engine(&graph, Sssp(source),
                               {.max_iterations = 512, .run_to_convergence = true});
  engine.InitialCompute();
  return engine.values();
}

TEST(KickStarter, InitialDistancesOnChain) {
  MutableGraph graph(GenerateChain(6));
  KickStarterEngine<KsSsspTraits> ks(&graph, KsSsspTraits(0));
  ks.InitialCompute();
  for (VertexId v = 0; v < 6; ++v) {
    EXPECT_DOUBLE_EQ(ks.values()[v], static_cast<double>(v));
  }
}

TEST(KickStarter, ParentsFormTree) {
  MutableGraph graph(GenerateRmat(300, 2500, {.seed = 130}));
  KickStarterEngine<KsSsspTraits> ks(&graph, KsSsspTraits(0));
  ks.InitialCompute();
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (v == 0 || ks.values()[v] >= kUnreachable) {
      EXPECT_EQ(ks.parents()[v], kInvalidVertex);
    } else {
      const VertexId p = ks.parents()[v];
      ASSERT_NE(p, kInvalidVertex);
      EXPECT_TRUE(graph.HasEdge(p, v));
      EXPECT_LT(ks.values()[p], ks.values()[v]);
    }
  }
}

TEST(KickStarter, AdditionRelaxes) {
  EdgeList list = GenerateChain(6);
  MutableGraph graph(list);
  KickStarterEngine<KsSsspTraits> ks(&graph, KsSsspTraits(0));
  ks.InitialCompute();
  ks.ApplyMutations({EdgeMutation::Add(0, 5)});
  EXPECT_DOUBLE_EQ(ks.values()[5], 1.0);
}

TEST(KickStarter, DeletionTrimsSubtree) {
  // 0->1->2->3 plus alternate route 0->4->3. Deleting 1->2 invalidates
  // {2, 3}; 3 recovers through 4.
  EdgeList list;
  list.set_num_vertices(5);
  list.Add(0, 1);
  list.Add(1, 2);
  list.Add(2, 3);
  list.Add(0, 4);
  list.Add(4, 3);
  MutableGraph graph(std::move(list));
  KickStarterEngine<KsSsspTraits> ks(&graph, KsSsspTraits(0));
  ks.InitialCompute();
  EXPECT_DOUBLE_EQ(ks.values()[3], 2.0);  // via 4
  ks.ApplyMutations({EdgeMutation::Delete(1, 2)});
  EXPECT_GE(ks.values()[2], kUnreachable);
  EXPECT_DOUBLE_EQ(ks.values()[3], 2.0);
}

TEST(KickStarter, DeletionMakesUnreachable) {
  MutableGraph graph(GenerateChain(4));
  KickStarterEngine<KsSsspTraits> ks(&graph, KsSsspTraits(0));
  ks.InitialCompute();
  ks.ApplyMutations({EdgeMutation::Delete(0, 1)});
  EXPECT_GE(ks.values()[1], kUnreachable);
  EXPECT_GE(ks.values()[3], kUnreachable);
}

TEST(KickStarter, StreamingMatchesReference) {
  EdgeList full = GenerateRmat(800, 7000, {.seed = 131, .assign_random_weights = true});
  StreamSplit split = SplitForStreaming(full, 0.5, 132);
  MutableGraph graph(split.initial);
  KickStarterEngine<KsSsspTraits> ks(&graph, KsSsspTraits(0));
  ks.InitialCompute();

  UpdateStream stream(split.held_back, 133);
  for (int round = 0; round < 8; ++round) {
    const MutationBatch batch = stream.NextBatch(graph, {.size = 40, .add_fraction = 0.5});
    ks.ApplyMutations(batch);
    const std::vector<double> expected = ReferenceDistances(graph.ToEdgeList(), 0);
    ASSERT_EQ(expected.size(), ks.values().size());
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      ASSERT_NEAR(ks.values()[v], expected[v], 1e-9) << "round " << round << " vertex " << v;
    }
  }
}

TEST(KickStarter, AdditionsOnlyDoLittleWork) {
  EdgeList full = GenerateRmat(3000, 25000, {.seed = 134, .assign_random_weights = true});
  StreamSplit split = SplitForStreaming(full, 0.5, 135);
  MutableGraph graph(split.initial);
  KickStarterEngine<KsSsspTraits> ks(&graph, KsSsspTraits(0));
  ks.InitialCompute();
  const uint64_t initial_work = ks.stats().edges_processed;

  MutationBatch batch;
  for (size_t i = 0; i < 10; ++i) {
    batch.push_back(
        EdgeMutation::Add(split.held_back[i].src, split.held_back[i].dst, split.held_back[i].weight));
  }
  ks.ApplyMutations(batch);
  EXPECT_LT(ks.stats().edges_processed, initial_work / 5);
}

}  // namespace
}  // namespace graphbolt

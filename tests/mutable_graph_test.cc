// Unit tests for MutableGraph: dual CSR/CSC consistency and batched
// two-pass mutation (§4.1).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "src/graph/generators.h"
#include "src/graph/mutable_graph.h"
#include "src/util/random.h"

namespace graphbolt {
namespace {

MutableGraph Paper2a() {
  // Figure 2a: 0->1, 1->2, 2->0, 2->1, 3->2, 3->4, 4->3.
  EdgeList list;
  list.set_num_vertices(5);
  list.Add(0, 1);
  list.Add(1, 2);
  list.Add(2, 0);
  list.Add(2, 1);
  list.Add(3, 2);
  list.Add(3, 4);
  list.Add(4, 3);
  return MutableGraph(std::move(list));
}

TEST(MutableGraph, BuildConsistency) {
  MutableGraph graph = Paper2a();
  EXPECT_EQ(graph.num_vertices(), 5u);
  EXPECT_EQ(graph.num_edges(), 7u);
  EXPECT_TRUE(graph.CheckInvariants());
  EXPECT_EQ(graph.OutDegree(2), 2u);
  EXPECT_EQ(graph.InDegree(2), 2u);
  EXPECT_EQ(graph.InDegree(1), 2u);
}

TEST(MutableGraph, ApplyBatchAddsEdge) {
  MutableGraph graph = Paper2a();
  // The paper's running mutation: add edge (1, 2)... already present; use
  // (0, 2) instead plus the figure's GT addition (1->2 exists, add 0->3).
  const AppliedMutations applied = graph.ApplyBatch({EdgeMutation::Add(0, 3)});
  ASSERT_EQ(applied.added.size(), 1u);
  EXPECT_TRUE(applied.deleted.empty());
  EXPECT_TRUE(graph.HasEdge(0, 3));
  EXPECT_EQ(graph.InDegree(3), 2u);
  EXPECT_TRUE(graph.CheckInvariants());
}

TEST(MutableGraph, ApplyBatchDeletesEdge) {
  MutableGraph graph = Paper2a();
  const AppliedMutations applied = graph.ApplyBatch({EdgeMutation::Delete(2, 1)});
  ASSERT_EQ(applied.deleted.size(), 1u);
  EXPECT_FALSE(graph.HasEdge(2, 1));
  EXPECT_EQ(graph.num_edges(), 6u);
  EXPECT_EQ(graph.InDegree(1), 1u);
  EXPECT_TRUE(graph.CheckInvariants());
}

TEST(MutableGraph, AddExistingEdgeIsNoop) {
  MutableGraph graph = Paper2a();
  const AppliedMutations applied = graph.ApplyBatch({EdgeMutation::Add(0, 1)});
  EXPECT_TRUE(applied.Empty());
  EXPECT_EQ(graph.num_edges(), 7u);
}

TEST(MutableGraph, DeleteAbsentEdgeIsNoop) {
  MutableGraph graph = Paper2a();
  const AppliedMutations applied = graph.ApplyBatch({EdgeMutation::Delete(0, 4)});
  EXPECT_TRUE(applied.Empty());
  EXPECT_EQ(graph.num_edges(), 7u);
}

TEST(MutableGraph, SelfLoopMutationIgnored) {
  MutableGraph graph = Paper2a();
  const AppliedMutations applied = graph.ApplyBatch({EdgeMutation::Add(2, 2)});
  EXPECT_TRUE(applied.Empty());
}

TEST(MutableGraph, LastMutationWinsWithinBatch) {
  MutableGraph graph = Paper2a();
  // Add then delete the same absent edge: net no-op.
  AppliedMutations applied =
      graph.ApplyBatch({EdgeMutation::Add(0, 4), EdgeMutation::Delete(0, 4)});
  EXPECT_TRUE(applied.Empty());
  EXPECT_FALSE(graph.HasEdge(0, 4));
  // Delete then add an existing edge: net no-op (edge stays).
  applied = graph.ApplyBatch({EdgeMutation::Delete(0, 1), EdgeMutation::Add(0, 1)});
  EXPECT_TRUE(applied.Empty());
  EXPECT_TRUE(graph.HasEdge(0, 1));
}

TEST(MutableGraph, MutationGrowsVertexSet) {
  MutableGraph graph = Paper2a();
  const AppliedMutations applied = graph.ApplyBatch({EdgeMutation::Add(4, 9)});
  EXPECT_EQ(graph.num_vertices(), 10u);
  EXPECT_EQ(applied.added.size(), 1u);
  EXPECT_TRUE(graph.HasEdge(4, 9));
  EXPECT_EQ(graph.OutDegree(7), 0u);
  EXPECT_TRUE(graph.CheckInvariants());
}

TEST(MutableGraph, AddVerticesExplicitly) {
  MutableGraph graph = Paper2a();
  const VertexId first = graph.AddVertices(3);
  EXPECT_EQ(first, 5u);
  EXPECT_EQ(graph.num_vertices(), 8u);
  EXPECT_TRUE(graph.CheckInvariants());
}

TEST(MutableGraph, NormalizeBatchDoesNotMutate) {
  MutableGraph graph = Paper2a();
  const AppliedMutations normalized =
      graph.NormalizeBatch({EdgeMutation::Add(0, 4), EdgeMutation::Delete(2, 1)});
  EXPECT_EQ(normalized.added.size(), 1u);
  EXPECT_EQ(normalized.deleted.size(), 1u);
  EXPECT_EQ(graph.num_edges(), 7u);  // untouched
  EXPECT_FALSE(graph.HasEdge(0, 4));
}

TEST(MutableGraph, DeletedEdgeReportsItsWeight) {
  EdgeList list;
  list.set_num_vertices(2);
  list.Add(0, 1, 4.5f);
  MutableGraph graph(std::move(list));
  const AppliedMutations applied = graph.ApplyBatch({EdgeMutation::Delete(0, 1)});
  ASSERT_EQ(applied.deleted.size(), 1u);
  EXPECT_FLOAT_EQ(applied.deleted[0].weight, 4.5f);
}

TEST(MutableGraph, ToEdgeListRoundTrips) {
  MutableGraph graph = Paper2a();
  EdgeList exported = graph.ToEdgeList();
  EXPECT_EQ(exported.num_edges(), 7u);
  MutableGraph rebuilt(std::move(exported));
  EXPECT_EQ(rebuilt.num_edges(), graph.num_edges());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    EXPECT_EQ(rebuilt.OutDegree(v), graph.OutDegree(v));
    EXPECT_EQ(rebuilt.InDegree(v), graph.InDegree(v));
  }
}

TEST(MutableGraph, RandomizedMutationSequenceMatchesRebuild) {
  // Apply 20 random batches; after each, the mutated graph must equal a
  // graph rebuilt from scratch from its own edge list export.
  EdgeList initial = GenerateErdosRenyi(60, 300, 5);
  MutableGraph graph(initial);
  Rng rng(77);
  for (int round = 0; round < 20; ++round) {
    MutationBatch batch;
    for (int i = 0; i < 15; ++i) {
      const auto src = static_cast<VertexId>(rng.NextBounded(60));
      const auto dst = static_cast<VertexId>(rng.NextBounded(60));
      if (rng.NextDouble() < 0.5) {
        batch.push_back(EdgeMutation::Add(src, dst));
      } else {
        batch.push_back(EdgeMutation::Delete(src, dst));
      }
    }
    graph.ApplyBatch(batch);
    ASSERT_TRUE(graph.CheckInvariants());
    MutableGraph rebuilt(graph.ToEdgeList());
    ASSERT_EQ(rebuilt.num_edges(), graph.num_edges());
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      ASSERT_EQ(rebuilt.InDegree(v), graph.InDegree(v)) << "vertex " << v;
    }
  }
}

TEST(MutableGraph, InOutEdgeCountsAlwaysAgree) {
  EdgeList initial = GenerateRmat(200, 1000, {.seed = 3});
  MutableGraph graph(initial);
  uint64_t out_total = 0;
  uint64_t in_total = 0;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    out_total += graph.OutDegree(v);
    in_total += graph.InDegree(v);
  }
  EXPECT_EQ(out_total, graph.num_edges());
  EXPECT_EQ(in_total, graph.num_edges());
}

TEST(MutableGraph, UpdateWeightChangesWeightInPlace) {
  EdgeList list;
  list.set_num_vertices(2);
  list.Add(0, 1, 2.0f);
  MutableGraph graph(std::move(list));
  const AppliedMutations applied = graph.ApplyBatch({EdgeMutation::UpdateWeight(0, 1, 5.0f)});
  ASSERT_EQ(applied.deleted.size(), 1u);
  ASSERT_EQ(applied.added.size(), 1u);
  EXPECT_FLOAT_EQ(applied.deleted[0].weight, 2.0f);
  EXPECT_FLOAT_EQ(applied.added[0].weight, 5.0f);
  EXPECT_EQ(graph.num_edges(), 1u);
  EXPECT_FLOAT_EQ(graph.EdgeWeight(0, 1), 5.0f);
  EXPECT_TRUE(graph.CheckInvariants());
}

TEST(MutableGraph, UpdateWeightOfAbsentEdgeIsNoop) {
  MutableGraph graph = Paper2a();
  const AppliedMutations applied = graph.ApplyBatch({EdgeMutation::UpdateWeight(0, 4, 3.0f)});
  EXPECT_TRUE(applied.Empty());
  EXPECT_FALSE(graph.HasEdge(0, 4));
}

TEST(MutableGraph, UpdateWeightToSameValueIsNoop) {
  EdgeList list;
  list.set_num_vertices(2);
  list.Add(0, 1, 2.0f);
  MutableGraph graph(std::move(list));
  const AppliedMutations applied = graph.ApplyBatch({EdgeMutation::UpdateWeight(0, 1, 2.0f)});
  EXPECT_TRUE(applied.Empty());
}

TEST(MutableGraph, ApplySingleMatchesApplyBatchDifferentially) {
  // The single-mutation fast path (NormalizeSingle/ApplySingle, reused
  // scratch) must stay semantically identical to ApplyBatch({m}) for every
  // mutation kind, including self-loops, duplicates, absent-edge deletes,
  // weight updates, and vertex growth.
  EdgeList initial = GenerateErdosRenyi(40, 200, 9);
  MutableGraph single(initial);
  MutableGraph batched(initial);
  Rng rng(123);
  for (int i = 0; i < 400; ++i) {
    const auto src = static_cast<VertexId>(rng.NextBounded(45));  // growth included
    const auto dst = static_cast<VertexId>(rng.NextBounded(45));
    EdgeMutation m = EdgeMutation::Add(src, dst, static_cast<Weight>(rng.NextDouble()));
    const double roll = rng.NextDouble();
    if (roll < 0.35) {
      m = EdgeMutation::Delete(src, dst);
    } else if (roll < 0.5) {
      m = EdgeMutation::UpdateWeight(src, dst, static_cast<Weight>(rng.NextDouble()));
    }
    const MutableGraph::SingleEffect eff = single.NormalizeSingle(m);
    const AppliedMutations ref = batched.NormalizeBatch({m});
    ASSERT_EQ(eff.has_add, ref.added.size() == 1) << "mutation " << i;
    ASSERT_EQ(eff.has_delete, ref.deleted.size() == 1) << "mutation " << i;
    single.ApplySingle(m);
    batched.ApplyBatch({m});
    ASSERT_TRUE(single.CheckInvariants());
    ASSERT_EQ(single.num_vertices(), batched.num_vertices());
    ASSERT_EQ(single.num_edges(), batched.num_edges());
  }
  // Full structural equality after the sweep, both views.
  for (VertexId v = 0; v < single.num_vertices(); ++v) {
    const auto a = single.OutNeighbors(v);
    const auto b = batched.OutNeighbors(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << "vertex " << v;
    const auto wa = single.OutWeights(v);
    const auto wb = batched.OutWeights(v);
    ASSERT_TRUE(std::equal(wa.begin(), wa.end(), wb.begin(), wb.end())) << "vertex " << v;
    ASSERT_EQ(single.InDegree(v), batched.InDegree(v)) << "vertex " << v;
  }
}

// NormalizeBatch as it was written with an ordered map from endpoint pair
// to the pair's last mutation: the reference for the sort-based form.
AppliedMutations MapNormalize(const MutableGraph& graph, const MutationBatch& batch) {
  AppliedMutations result;
  std::map<std::pair<VertexId, VertexId>, EdgeMutation> last;
  for (const EdgeMutation& m : batch) {
    if (m.src != m.dst) {
      last[{m.src, m.dst}] = m;
    }
  }
  const VertexId n = graph.num_vertices();
  for (const auto& [endpoints, m] : last) {
    const auto [src, dst] = endpoints;
    const bool exists = src < n && dst < n && graph.HasEdge(src, dst);
    switch (m.kind) {
      case MutationKind::kAddEdge:
        if (!exists) {
          result.added.push_back({src, dst, m.weight});
        }
        break;
      case MutationKind::kDeleteEdge:
        if (exists) {
          result.deleted.push_back({src, dst, graph.EdgeWeight(src, dst)});
        }
        break;
      case MutationKind::kUpdateWeight:
        if (exists && graph.EdgeWeight(src, dst) != m.weight) {
          result.deleted.push_back({src, dst, graph.EdgeWeight(src, dst)});
          result.added.push_back({src, dst, m.weight});
        }
        break;
    }
  }
  return result;
}

bool SameEdges(const std::vector<Edge>& a, const std::vector<Edge>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(), [](const Edge& x, const Edge& y) {
    return x.src == y.src && x.dst == y.dst && std::memcmp(&x.weight, &y.weight, sizeof(Weight)) == 0;
  });
}

// The sort-based NormalizeBatch keeps each pair's last mutation and lists
// the pairs in (src, dst) order, as the map did: on batches that repeat a
// few pairs many times over, with self-loops, weight updates and endpoints
// past the vertex set, both forms give the same edges in the same order,
// and applying them keeps the graph the same.
TEST(MutableGraph, NormalizeBatchMatchesMapForm) {
  Rng rng(77);
  MutableGraph graph(GenerateRmat(40, 300, {.seed = 78, .assign_random_weights = true}));
  for (int round = 0; round < 30; ++round) {
    MutationBatch batch;
    const VertexId span = round % 3 == 0 ? 12 : 44;  // 44: some endpoints past the 40 vertices
    for (int i = 0; i < 400; ++i) {
      const VertexId src = static_cast<VertexId>(rng.NextBounded(span));
      const VertexId dst = i % 7 == 0 ? src : static_cast<VertexId>(rng.NextBounded(span));
      const Weight weight = static_cast<Weight>(rng.NextBounded(3) + 1);
      switch (rng.NextBounded(3)) {
        case 0:
          batch.push_back(EdgeMutation::Add(src, dst, weight));
          break;
        case 1:
          batch.push_back(EdgeMutation::Delete(src, dst));
          break;
        default:
          batch.push_back(EdgeMutation::UpdateWeight(src, dst, weight));
          break;
      }
    }
    const AppliedMutations want = MapNormalize(graph, batch);
    const AppliedMutations got = graph.NormalizeBatch(batch);
    ASSERT_TRUE(SameEdges(got.added, want.added)) << "round " << round;
    ASSERT_TRUE(SameEdges(got.deleted, want.deleted)) << "round " << round;
    const AppliedMutations applied = graph.ApplyBatch(batch);
    ASSERT_TRUE(SameEdges(applied.added, want.added)) << "round " << round;
    ASSERT_TRUE(SameEdges(applied.deleted, want.deleted)) << "round " << round;
    ASSERT_TRUE(graph.CheckInvariants());
  }
}

TEST(MutableGraph, EmptyBatch) {
  MutableGraph graph = Paper2a();
  const AppliedMutations applied = graph.ApplyBatch({});
  EXPECT_TRUE(applied.Empty());
  EXPECT_EQ(graph.num_edges(), 7u);
}

}  // namespace
}  // namespace graphbolt

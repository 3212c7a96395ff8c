// Differential property/fuzz tests for SlackCsr: under seeded random
// mutation streams, the slack representation must stay *bitwise* equivalent
// to the reference rebuild-on-apply Csr — same edge list export, degrees,
// HasEdge, EdgeWeight — including forced-compaction, vertex-growth, and
// background-compaction (multi-batch shadow epochs with mid-epoch edits)
// cases. Seeds are env-sharded via FuzzSeeds() (tests/test_util.h), same as
// fuzz_stream_test.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "src/graph/mutable_graph.h"
#include "src/graph/slack_csr.h"
#include "src/stream/update_stream.h"
#include "src/util/random.h"
#include "tests/test_util.h"

namespace graphbolt {
namespace {

// The reference: a dual rebuild-CSR graph driven exactly the way the old
// MutableGraph drove Csr::ApplyEdits — full-size per-vertex edit arrays and
// an O(V+E) rebuild per batch.
class ReferenceGraph {
 public:
  explicit ReferenceGraph(const EdgeList& edges)
      : out_(Csr::FromEdges(edges.num_vertices(), edges.edges(), /*reverse=*/false)),
        in_(Csr::FromEdges(edges.num_vertices(), edges.edges(), /*reverse=*/true)) {}

  void Apply(const AppliedMutations& result, VertexId new_vertex_count) {
    out_.GrowVertices(new_vertex_count);
    in_.GrowVertices(new_vertex_count);
    const VertexId n = out_.num_vertices();
    std::vector<std::vector<VertexId>> out_deletes(n);
    std::vector<std::vector<std::pair<VertexId, Weight>>> out_adds(n);
    std::vector<std::vector<VertexId>> in_deletes(n);
    std::vector<std::vector<std::pair<VertexId, Weight>>> in_adds(n);
    for (const Edge& e : result.added) {
      out_adds[e.src].push_back({e.dst, e.weight});
      in_adds[e.dst].push_back({e.src, e.weight});
    }
    for (const Edge& e : result.deleted) {
      out_deletes[e.src].push_back(e.dst);
      in_deletes[e.dst].push_back(e.src);
    }
    for (auto& v : in_deletes) {
      std::sort(v.begin(), v.end());
    }
    for (auto& v : in_adds) {
      std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) { return a.first < b.first; });
    }
    out_.ApplyEdits(out_deletes, out_adds);
    in_.ApplyEdits(in_deletes, in_adds);
  }

  const Csr& out() const { return out_; }
  const Csr& in() const { return in_; }

 private:
  Csr out_;
  Csr in_;
};

// Bitwise equivalence: every observable of the slack view must match the
// reference view exactly (weights compared bit-for-bit via Edge::operator==).
void ExpectEquivalent(const MutableGraph& graph, const ReferenceGraph& ref) {
  const VertexId n = graph.num_vertices();
  ASSERT_EQ(n, ref.out().num_vertices());
  ASSERT_EQ(graph.num_edges(), ref.out().num_edges());
  for (VertexId v = 0; v < n; ++v) {
    ASSERT_EQ(graph.OutDegree(v), ref.out().Degree(v)) << "out-degree of " << v;
    ASSERT_EQ(graph.InDegree(v), ref.in().Degree(v)) << "in-degree of " << v;
    const auto nbrs = graph.OutNeighbors(v);
    const auto wts = graph.OutWeights(v);
    const auto ref_nbrs = ref.out().Neighbors(v);
    const auto ref_wts = ref.out().Weights(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      ASSERT_EQ(nbrs[i], ref_nbrs[i]) << "neighbor " << i << " of " << v;
      ASSERT_EQ(wts[i], ref_wts[i]) << "weight " << i << " of " << v;
      ASSERT_TRUE(graph.HasEdge(v, nbrs[i]));
      ASSERT_EQ(graph.EdgeWeight(v, nbrs[i]), ref.out().EdgeWeight(v, nbrs[i]));
    }
    // DegreePrefix must agree with the reference CSR's offsets (both are
    // cumulative out-degrees).
    ASSERT_EQ(graph.out().DegreePrefix()[v], ref.out().offsets()[v]) << "prefix at " << v;
  }
  ASSERT_TRUE(graph.CheckInvariants());
  ASSERT_TRUE(ref.out().CheckInvariants());
}

MutationBatch RandomBatch(const MutableGraph& graph, Rng& rng, size_t size,
                          double delete_fraction, VertexId growth_span) {
  MutationBatch batch;
  const VertexId n = graph.num_vertices();
  for (size_t i = 0; i < size; ++i) {
    const auto src = static_cast<VertexId>(rng.NextBounded(n));
    const double roll = rng.NextDouble();
    if (roll < delete_fraction) {
      const auto nbrs = graph.OutNeighbors(src);
      if (!nbrs.empty()) {
        batch.push_back(EdgeMutation::Delete(src, nbrs[rng.NextBounded(nbrs.size())]));
      } else {
        batch.push_back(EdgeMutation::Delete(src, static_cast<VertexId>(rng.NextBounded(n))));
      }
    } else if (roll < delete_fraction + 0.1) {
      batch.push_back(EdgeMutation::UpdateWeight(src, static_cast<VertexId>(rng.NextBounded(n)),
                                                 static_cast<Weight>(0.25 + rng.NextDouble())));
    } else {
      // Occasionally target a vertex beyond the current range to force
      // vertex growth through both representations.
      const VertexId dst = growth_span > 0 && rng.NextDouble() < 0.05
                               ? n + static_cast<VertexId>(rng.NextBounded(growth_span))
                               : static_cast<VertexId>(rng.NextBounded(n));
      batch.push_back(EdgeMutation::Add(src, dst, static_cast<Weight>(0.1 + rng.NextDouble())));
    }
  }
  return batch;
}

class SlackCsrFuzz : public testing::TestWithParam<uint64_t> {};

TEST_P(SlackCsrFuzz, MatchesRebuildCsrUnderMixedStream) {
  const uint64_t seed = GetParam();
  EdgeList initial = GenerateRmat(250, 1800, {.seed = seed, .assign_random_weights = true});
  initial.SortAndDeduplicate();
  MutableGraph graph(initial);
  ReferenceGraph ref(initial);
  Rng rng(seed * 101 + 13);
  for (int round = 0; round < 25; ++round) {
    const MutationBatch batch =
        RandomBatch(graph, rng, 1 + rng.NextBounded(50), /*delete_fraction=*/0.35,
                    /*growth_span=*/3);
    const AppliedMutations applied = graph.ApplyBatch(batch);
    ref.Apply(applied, graph.num_vertices());
    ExpectEquivalent(graph, ref);
  }
}

TEST_P(SlackCsrFuzz, DeleteHeavyStreamForcesCompaction) {
  const uint64_t seed = GetParam();
  EdgeList initial = GenerateRmat(200, 4000, {.seed = seed + 500, .assign_random_weights = true});
  initial.SortAndDeduplicate();
  MutableGraph graph(initial);
  ReferenceGraph ref(initial);
  Rng rng(seed * 7 + 3);
  size_t compactions = 0;
  for (int round = 0; round < 30; ++round) {
    const MutationBatch batch =
        RandomBatch(graph, rng, 60 + rng.NextBounded(60), /*delete_fraction=*/0.85,
                    /*growth_span=*/0);
    const AppliedMutations applied = graph.ApplyBatch(batch);
    ref.Apply(applied, graph.num_vertices());
    compactions += graph.out().last_apply_stats().compactions;
    compactions += graph.in().last_apply_stats().compactions;
    ExpectEquivalent(graph, ref);
    // Post-apply invariant: slack never rests above the threshold on an
    // arena large enough to be worth compacting.
    ASSERT_TRUE(graph.out().arena_used() < SlackCsr::kMinCompactionArena ||
                graph.out().SlackFraction() <= SlackCsr::kCompactionThreshold + 1e-9)
        << "slack above threshold survived a batch";
  }
  // An 85%-delete stream over 30 rounds must shed enough edges to trip the
  // threshold at least once; equivalence held across every compaction above.
  EXPECT_GT(compactions, 0u) << "compaction never triggered; test lost its teeth";
}

TEST_P(SlackCsrFuzz, BackgroundCompactionStaysBitwiseEquivalent) {
  const uint64_t seed = GetParam();
  EdgeList initial = GenerateRmat(250, 1500, {.seed = seed + 1300, .assign_random_weights = true});
  initial.SortAndDeduplicate();
  MutableGraph graph(initial);
  graph.SetCompactionMode(SlackCsr::CompactionMode::kBackground);
  ReferenceGraph ref(initial);
  Rng rng(seed * 57 + 29);
  for (int round = 0; round < 45; ++round) {
    const MutationBatch batch =
        RandomBatch(graph, rng, 30 + rng.NextBounded(40), /*delete_fraction=*/0.6,
                    /*growth_span=*/3);
    const AppliedMutations applied = graph.ApplyBatch(batch);
    ref.Apply(applied, graph.num_vertices());
    ExpectEquivalent(graph, ref);
    // A deliberately small budget: one step per round means a shadow
    // rewrite spans several batches, so edits keep landing mid-epoch and
    // the flip's correctness rides entirely on the dirty-vertex tracking.
    // Equivalence is re-checked right after the step to cover flip rounds.
    graph.MaintenanceStep(200);
    ExpectEquivalent(graph, ref);
  }
  EXPECT_GT(graph.compaction_stats().background_compactions, 0u)
      << "no shadow rewrite ever completed; raise rounds or budget";
}

TEST_P(SlackCsrFuzz, GrowthHeavyStreamRelocatesSegments) {
  const uint64_t seed = GetParam();
  // Start near-empty so almost every addition overflows a tight segment.
  EdgeList initial = GenerateErdosRenyi(150, 160, seed + 900, /*assign_random_weights=*/true);
  initial.SortAndDeduplicate();
  MutableGraph graph(initial);
  ReferenceGraph ref(initial);
  Rng rng(seed * 31 + 17);
  size_t relocations = 0;
  for (int round = 0; round < 25; ++round) {
    const MutationBatch batch =
        RandomBatch(graph, rng, 30 + rng.NextBounded(30), /*delete_fraction=*/0.05,
                    /*growth_span=*/4);
    const AppliedMutations applied = graph.ApplyBatch(batch);
    ref.Apply(applied, graph.num_vertices());
    relocations += graph.out().last_apply_stats().relocations;
    ExpectEquivalent(graph, ref);
  }
  EXPECT_GT(relocations, 0u) << "growth stream never overflowed a segment";
}

TEST(SlackCsrUnit, ExplicitCompactTightensArena) {
  EdgeList list = GenerateRmat(100, 1500, {.seed = 11, .assign_random_weights = true});
  list.SortAndDeduplicate();
  MutableGraph graph(list);
  // Delete a third of the edges to open slack, then compact explicitly.
  MutationBatch batch;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    const auto nbrs = graph.OutNeighbors(v);
    for (size_t i = 0; i < nbrs.size(); i += 3) {
      batch.push_back(EdgeMutation::Delete(v, nbrs[i]));
    }
  }
  graph.ApplyBatch(batch);
  SlackCsr copy = graph.out();  // compact a copy; MutableGraph's view is const
  copy.Compact();
  EXPECT_EQ(copy.arena_used(), copy.num_edges());
  EXPECT_DOUBLE_EQ(copy.SlackFraction(), 0.0);
  EXPECT_TRUE(copy.CheckInvariants());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    const auto a = graph.OutNeighbors(v);
    const auto b = copy.Neighbors(v);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]);
    }
  }
}

// Add-heavy R-MAT streams land most of their adds on hubs. Compacting a
// relocated hub tight made its next add relocate it again, stranding its
// whole old segment as slack, so slack crossed the threshold again within
// a few batches. A segment keeps a relocation's capacity through
// compaction while it is a quarter full, so most batches do not compact.
TEST(SlackCsrUnit, HubAddsDoNotCompactMostBatches) {
  EdgeList full = GenerateRmat(20000, 240000, {.seed = 31, .assign_random_weights = true});
  StreamSplit split = SplitForStreaming(full, 0.5, 32);
  MutableGraph graph(split.initial);
  UpdateStream stream(split.held_back, 33);
  constexpr int kBatches = 60;
  int compacting = 0;
  for (int b = 0; b < kBatches; ++b) {
    graph.ApplyBatch(stream.NextBatch(graph, {.size = 1024, .add_fraction = 0.6}));
    if (graph.out().last_apply_stats().compactions + graph.in().last_apply_stats().compactions > 0) {
      ++compacting;
    }
  }
  EXPECT_LT(compacting * 4, kBatches) << compacting << " of " << kBatches << " batches compacted";
  EXPECT_TRUE(graph.CheckInvariants());
}

TEST(SlackCsrUnit, ApplyStatsScaleWithBatchNotGraph) {
  // The O(batch-impact) claim, asserted on deterministic counters: splicing
  // a small batch touches only the affected vertices, and the edges moved
  // are bounded by those vertices' own adjacency lists — never |E| (the old
  // rebuild path rewrote all of it, every batch).
  auto run = [](VertexId v, EdgeIndex e, uint64_t seed) {
    EdgeList list = GenerateRmat(v, e, {.seed = seed});
    list.SortAndDeduplicate();
    MutableGraph graph(list);
    MutationBatch batch;
    for (VertexId i = 0; i < 8; ++i) {
      batch.push_back(EdgeMutation::Add(i, v - 1 - i));
    }
    graph.ApplyBatch(batch);
    const auto stats = graph.out().last_apply_stats();
    EXPECT_LE(stats.touched_vertices, 8u);
    // Exact bound: spliced work <= the touched sources' post-apply degrees.
    uint64_t touched_degree_sum = 0;
    for (VertexId i = 0; i < 8; ++i) {
      touched_degree_sum += graph.OutDegree(i);
    }
    EXPECT_LE(stats.edges_spliced, touched_degree_sum);
    // And that bound is a small fraction of the graph: the apply never
    // degenerates into a rebuild.
    EXPECT_LT(stats.edges_spliced, graph.num_edges() / 4);
    return stats;
  };
  const auto small = run(2000, 30000, 5);
  const auto large = run(2000, 120000, 5);
  // Hub degrees grow with |E| in RMAT, so spliced work may grow too — but
  // strictly slower than the graph itself (4x edges, <4x splice).
  EXPECT_LT(large.edges_spliced, 4 * small.edges_spliced);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlackCsrFuzz, testing::ValuesIn(FuzzSeeds()));

}  // namespace
}  // namespace graphbolt

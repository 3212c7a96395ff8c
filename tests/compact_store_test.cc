// Tests for CompactDependencyStore: the paper's §4.1 per-vertex contiguous
// aggregation layout with real vertical pruning, and its use as the
// GraphBolt engine's storage backend.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "src/algorithms/coem.h"
#include "src/algorithms/label_propagation.h"
#include "src/algorithms/pagerank.h"
#include "src/algorithms/sssp.h"
#include "src/core/compact_dependency_store.h"
#include "src/core/graphbolt_engine.h"
#include "src/engine/ligra_engine.h"
#include "src/graph/generators.h"
#include "src/stream/update_stream.h"
#include "tests/test_util.h"

namespace graphbolt {
namespace {

template <typename Algo>
using CompactEngine = GraphBoltEngine<Algo, CompactDependencyStore<typename Algo::Aggregate>>;

// ----- Store-level behaviour -------------------------------------------------

TEST(CompactStore, StoresAndReadsLevels) {
  CompactDependencyStore<double> store;
  store.Reset(3, 10);
  store.SnapshotLevel(1, {1, 2, 3}, AtomicBitset(3));
  store.SnapshotLevel(2, {4, 2, 3}, AtomicBitset(3));
  EXPECT_EQ(store.tracked_levels(), 2u);
  EXPECT_DOUBLE_EQ(store.At(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(store.At(2, 0), 4.0);
  EXPECT_DOUBLE_EQ(store.At(2, 1), 2.0);  // pruned: clamps to last stored
}

TEST(CompactStore, VerticalPruningDropsStableSuffix) {
  CompactDependencyStore<double> store;
  store.Reset(2, 10);
  store.SnapshotLevel(1, {1, 5}, AtomicBitset(2));
  store.SnapshotLevel(2, {1, 6}, AtomicBitset(2));  // vertex 0 stable
  store.SnapshotLevel(3, {1, 6}, AtomicBitset(2));  // both stable
  // Vertex 0 stores one entry, vertex 1 stores two: 3 total, not 6.
  EXPECT_EQ(store.logical_entries(), 3u);
  EXPECT_DOUBLE_EQ(store.At(3, 0), 1.0);
  EXPECT_DOUBLE_EQ(store.At(3, 1), 6.0);
}

TEST(CompactStore, HoleFillingPreservesIndexing) {
  // A vertex stable through levels 2-3 that changes at level 4 must get its
  // holes re-filled so level indexing stays valid (§4.1).
  CompactDependencyStore<double> store;
  store.Reset(1, 10);
  store.SnapshotLevel(1, {1}, AtomicBitset(1));
  store.SnapshotLevel(2, {1}, AtomicBitset(1));
  store.SnapshotLevel(3, {1}, AtomicBitset(1));
  store.SnapshotLevel(4, {9}, AtomicBitset(1));
  EXPECT_EQ(store.logical_entries(), 4u);  // holes 2..3 re-materialized
  EXPECT_DOUBLE_EQ(store.At(2, 0), 1.0);
  EXPECT_DOUBLE_EQ(store.At(3, 0), 1.0);
  EXPECT_DOUBLE_EQ(store.At(4, 0), 9.0);
}

TEST(CompactStore, MaterializeCommitRoundTrip) {
  CompactDependencyStore<double> store;
  store.Reset(4, 10);
  store.SnapshotLevel(1, {1, 2, 3, 4}, AtomicBitset(4));
  store.SnapshotLevel(2, {1, 2, 3, 4}, AtomicBitset(4));  // all pruned
  const VertexSubset targets = VertexSubset::FromSorted(4, {1, 3});
  std::vector<double> scratch;
  store.MaterializeLevel(2, targets, &scratch);
  EXPECT_DOUBLE_EQ(scratch[1], 2.0);
  EXPECT_DOUBLE_EQ(scratch[3], 4.0);
  scratch[1] = 20.0;
  scratch[3] = 40.0;
  store.CommitLevel(2, targets, scratch);
  EXPECT_DOUBLE_EQ(store.At(2, 1), 20.0);
  EXPECT_DOUBLE_EQ(store.At(2, 3), 40.0);
  EXPECT_DOUBLE_EQ(store.At(1, 1), 2.0);  // level 1 untouched
  EXPECT_DOUBLE_EQ(store.At(2, 0), 1.0);  // non-target untouched
}

TEST(CompactStore, RepruneTailsDropsRestabilizedSuffix) {
  CompactDependencyStore<double> store;
  store.Reset(1, 10);
  store.SnapshotLevel(1, {1}, AtomicBitset(1));
  store.SnapshotLevel(2, {2}, AtomicBitset(1));
  const VertexSubset target = VertexSubset::FromSorted(1, {0});
  std::vector<double> scratch{0.0};
  scratch[0] = 1.0;  // refine level 2 back to the level-1 value
  store.CommitLevel(2, target, scratch);
  EXPECT_EQ(store.logical_entries(), 2u);
  store.RepruneTails();
  EXPECT_EQ(store.logical_entries(), 1u);
  EXPECT_DOUBLE_EQ(store.At(2, 0), 1.0);
}

TEST(CompactStore, GrowVerticesAddsIdentityHistory) {
  CompactDependencyStore<double> store;
  store.Reset(2, 10);
  AtomicBitset bits(2);
  bits.Set(0);
  store.SnapshotLevel(1, {1, 2}, std::move(bits));
  store.GrowVertices(4, 0.0);
  EXPECT_DOUBLE_EQ(store.At(1, 3), 0.0);
  EXPECT_TRUE(store.ChangedAt(1).Test(0));
  EXPECT_FALSE(store.ChangedAt(1).Test(3));
}

// ----- Engine on the compact backend ------------------------------------------

TEST(CompactEngineTest, MatchesDenseBackendOnStream) {
  EdgeList full = GenerateRmat(600, 5000, {.seed = 190, .assign_random_weights = true});
  StreamSplit split = SplitForStreaming(full, 0.5, 191);
  MutableGraph g1(split.initial);
  MutableGraph g2(split.initial);
  GraphBoltEngine<PageRank> dense(&g1, PageRank{});
  CompactEngine<PageRank> compact(&g2, PageRank{});
  dense.InitialCompute();
  compact.InitialCompute();
  ASSERT_LT(MaxGap(dense.values(), compact.values()), 1e-12);

  UpdateStream stream(split.held_back, 192);
  for (int round = 0; round < 8; ++round) {
    const MutationBatch batch = stream.NextBatch(g1, {.size = 30, .add_fraction = 0.6});
    dense.ApplyMutations(batch);
    compact.ApplyMutations(batch);
    ASSERT_LT(MaxGap(dense.values(), compact.values()), 1e-9) << "round " << round;
  }
}

TEST(CompactEngineTest, MatchesRestartAcrossAlgorithms) {
  EdgeList full = GenerateRmat(500, 4000, {.seed = 193, .assign_random_weights = true});
  StreamSplit split = SplitForStreaming(full, 0.5, 194);
  {
    MutableGraph g1(split.initial);
    MutableGraph g2(split.initial);
    CoEM algo(full.num_vertices(), 0.08, 195);
    CompactEngine<CoEM> compact(&g1, algo);
    LigraEngine<CoEM> ligra(&g2, algo);
    compact.InitialCompute();
    ligra.InitialCompute();
    UpdateStream stream(split.held_back, 196);
    for (int round = 0; round < 5; ++round) {
      const MutationBatch batch = stream.NextBatch(g1, {.size = 30, .add_fraction = 0.6});
      compact.ApplyMutations(batch);
      ligra.ApplyMutations(batch);
      ASSERT_LT(MaxGap(compact.values(), ligra.values()), 1e-8) << "CoEM round " << round;
    }
  }
  {
    MutableGraph g1(split.initial);
    MutableGraph g2(split.initial);
    CompactEngine<Sssp> compact(&g1, Sssp(0), {.max_iterations = 256, .run_to_convergence = true});
    LigraEngine<Sssp> ligra(&g2, Sssp(0), {.max_iterations = 256, .run_to_convergence = true});
    compact.InitialCompute();
    ligra.InitialCompute();
    UpdateStream stream(split.held_back, 197);
    for (int round = 0; round < 5; ++round) {
      const MutationBatch batch = stream.NextBatch(g1, {.size = 25, .add_fraction = 0.5});
      compact.ApplyMutations(batch);
      ligra.ApplyMutations(batch);
      ASSERT_LT(MaxGap(compact.values(), ligra.values()), 1e-9) << "SSSP round " << round;
    }
  }
}

TEST(CompactEngineTest, UsesLessMemoryThanDenseForStabilizingAlgorithms) {
  // Label Propagation with a loose tolerance stabilizes quickly; the
  // compact store must hold far fewer entries than levels * vertices.
  EdgeList full = GenerateRmat(2000, 16000, {.seed = 198, .assign_random_weights = true});
  MutableGraph g1(full);
  MutableGraph g2(full);
  LabelPropagation<2> algo(g1.num_vertices(), 0.1, 199, /*tolerance=*/1e-3);
  GraphBoltEngine<LabelPropagation<2>> dense(&g1, algo, {.max_iterations = 20});
  CompactEngine<LabelPropagation<2>> compact(&g2, algo, {.max_iterations = 20});
  dense.InitialCompute();
  compact.InitialCompute();
  const uint64_t full_entries =
      static_cast<uint64_t>(g1.num_vertices()) * dense.store().tracked_levels();
  EXPECT_LT(compact.store().logical_entries(), full_entries * 3 / 4);
  EXPECT_LT(MaxGap(dense.values(), compact.values()), 1e-12);
}

TEST(CompactEngineTest, PrunedHistoryWithCompactBackend) {
  EdgeList full = GenerateRmat(500, 4000, {.seed = 200});
  StreamSplit split = SplitForStreaming(full, 0.5, 201);
  MutableGraph g1(split.initial);
  MutableGraph g2(split.initial);
  CompactEngine<PageRank> compact(&g1, PageRank{}, {.max_iterations = 10, .history_size = 4});
  LigraEngine<PageRank> ligra(&g2, PageRank{});
  compact.InitialCompute();
  ligra.InitialCompute();
  UpdateStream stream(split.held_back, 202);
  for (int round = 0; round < 5; ++round) {
    const MutationBatch batch = stream.NextBatch(g1, {.size = 25, .add_fraction = 0.6});
    compact.ApplyMutations(batch);
    ligra.ApplyMutations(batch);
    ASSERT_LT(MaxGap(compact.values(), ligra.values()), 1e-7) << "round " << round;
  }
}

TEST(CompactEngineTest, SaveLoadRoundTrip) {
  EdgeList list = GenerateRmat(300, 2000, {.seed = 203});
  MutableGraph g1(list);
  CompactEngine<PageRank> original(&g1, PageRank{});
  original.InitialCompute();
  const std::string path = testing::TempDir() + "/compact_state.bin";
  {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(original.SaveStateTo(out));
  }

  MutableGraph g2(g1.ToEdgeList());
  CompactEngine<PageRank> resumed(&g2, PageRank{});
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(resumed.LoadStateFrom(in));
  }
  EXPECT_LT(MaxGap(resumed.values(), original.values()), 1e-15);

  const MutationBatch batch{EdgeMutation::Add(0, 7), EdgeMutation::Delete(1, 2)};
  original.ApplyMutations(batch);
  resumed.ApplyMutations(batch);
  EXPECT_LT(MaxGap(resumed.values(), original.values()), 1e-12);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace graphbolt

// Tests targeting the dependency-driven refinement machinery itself:
// the Figure 2 motivation (naive reuse is wrong, refinement is right),
// dependency-store bookkeeping, and refinement edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "src/algorithms/belief_propagation.h"
#include "src/algorithms/coem.h"
#include "src/algorithms/collaborative_filtering.h"
#include "src/algorithms/connected_components.h"
#include "src/algorithms/label_propagation.h"
#include "src/algorithms/multi_source_reach.h"
#include "src/algorithms/pagerank.h"
#include "src/algorithms/personalized_pagerank.h"
#include "src/algorithms/sssp.h"
#include "src/algorithms/widest_path.h"
#include "src/core/compact_dependency_store.h"
#include "src/core/delta_kernel.h"
#include "src/core/dependency_store.h"
#include "src/core/graphbolt_engine.h"
#include "src/engine/ligra_engine.h"
#include "src/engine/reset_engine.h"  // HasDeltaContribution
#include "src/graph/generators.h"
#include "src/parallel/task_arena.h"
#include "src/stream/update_stream.h"
#include "src/util/random.h"
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

// A batch whose every level is dense: the added edges alone carry more than
// |E|/20 out-edges of their sources, which stay in the frontier at every
// level (their degree context changed), so every level takes the pull sweep.
MutationBatch AllDenseBatch(const MutableGraph& graph, const std::vector<Edge>& held_back,
                            uint64_t seed) {
  UpdateStream stream(held_back, seed);
  return stream.NextBatch(graph, {.size = graph.num_edges() / 8, .add_fraction = 0.6});
}

// One edge between two low-degree vertices: level 1's frontier is its two
// endpoints, far below |E|/20 out-edges, so the early levels push.
EdgeMutation SparseSingleEdge(const MutableGraph& graph) {
  for (VertexId u = 0; u < graph.num_vertices(); ++u) {
    for (VertexId v = u + 1; v < graph.num_vertices(); ++v) {
      if (graph.OutDegree(u) + graph.OutDegree(v) <= 4 && !graph.HasEdge(u, v)) {
        return EdgeMutation::Add(u, v, 0.5);
      }
    }
  }
  return EdgeMutation::Add(0, 0);
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

  const AppliedMutations applied =
      bolt.ApplyMutations(AllDenseBatch(graph, split.held_back, seed + 2));
  ASSERT_GT(applied.added.size(), graph.num_edges() / 20);
  ExpectMatchesFreshRun(graph, bolt, algo, tolerance, "dense batch");

  const EdgeMutation single = SparseSingleEdge(graph);
  ASSERT_NE(single.src, single.dst);
  ASSERT_LT(graph.OutDegree(single.src) + graph.OutDegree(single.dst) + 1,
            graph.num_edges() / 20);
  bolt.ApplyMutations({single});
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

// ----- Weight-free staging keeps the per-edge bits ---------------------------------

// FNV-1a over the bytes of `cells`, continuing from `hash`.
template <typename T>
uint64_t Fnv1a(const std::vector<T>& cells, uint64_t hash = 0xcbf29ce484222325ULL) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto* bytes = reinterpret_cast<const unsigned char*>(cells.data());
  for (size_t i = 0; i < cells.size() * sizeof(T); ++i) {
    hash = (hash ^ bytes[i]) * 0x100000001b3ULL;
  }
  return hash;
}

// Appends three digests of `bolt`'s state to `digests`: values(), every
// tracked level array, and every changed-bit word of every level followed
// by the last run's edges_processed.
template <typename Engine>
void RecordDigests(const Engine& bolt, std::vector<uint64_t>* digests) {
  uint64_t levels = Fnv1a(std::vector<uint64_t>{});
  for (uint32_t level = 1; level <= bolt.store().tracked_levels(); ++level) {
    levels = Fnv1a(bolt.store().LevelArray(level), levels);
  }
  std::vector<uint64_t> words;
  for (uint32_t level = 1; level <= bolt.store().total_levels(); ++level) {
    const AtomicBitset& bits = bolt.store().ChangedAt(level);
    for (size_t word = 0; word < bits.num_words(); ++word) {
      words.push_back(bits.LoadWord(word));
    }
  }
  words.push_back(bolt.stats().edges_processed);
  digests->push_back(Fnv1a(bolt.values()));
  digests->push_back(levels);
  digests->push_back(Fnv1a(words));
}

// Digests (RecordDigests) after the initial run, an all-dense batch and a
// single-edge batch, on one worker.
template <typename Algo>
std::vector<uint64_t> RefinementDigests(const Algo& algo, uint64_t seed,
                                        typename GraphBoltEngine<Algo>::Options options = {}) {
  const size_t original = TaskArena::Instance().num_threads();
  TaskArena::SetNumThreads(1);
  EdgeList full = GenerateRmat(600, 6000, {.seed = seed, .assign_random_weights = true});
  StreamSplit split = SplitForStreaming(full, 0.5, seed + 1);
  MutableGraph graph(split.initial);
  GraphBoltEngine<Algo> bolt(&graph, algo, options);
  std::vector<uint64_t> digests;
  auto record = [&] { RecordDigests(bolt, &digests); };
  bolt.InitialCompute();
  record();
  const AppliedMutations dense =
      bolt.ApplyMutations(AllDenseBatch(graph, split.held_back, seed + 2));
  EXPECT_GT(dense.added.size(), graph.num_edges() / 20);
  record();
  bolt.ApplyMutations({SparseSingleEdge(graph)});
  record();
  TaskArena::SetNumThreads(original);
  return digests;
}

std::string Hex(const std::vector<uint64_t>& digests) {
  std::string out;
  char buf[32];
  for (const uint64_t d : digests) {
    std::snprintf(buf, sizeof(buf), "0x%016llxULL, ", static_cast<unsigned long long>(d));
    out += buf;
  }
  return out;
}

// Weight-free algorithms evaluate each frontier source's change once per
// level instead of once per edge, and dense levels detect their targets
// from the staged changes. The staged value is the same function of the
// same arguments, added in the same order, so the refined values, every
// level array, every changed bit and the edge count keep the bits of the
// per-edge evaluation; the constants were recorded with it (initial run,
// dense batch, single-edge batch; values, level and changed-bit digests for
// each).
TEST(Refinement, WeightFreeStagingKeepsParentBits) {
  auto expect_digests = [](const std::vector<uint64_t>& got, const std::vector<uint64_t>& want,
                           const char* what) { EXPECT_EQ(got, want) << what << ": " << Hex(got); };
  expect_digests(RefinementDigests(PageRank{}, 140),
                 {0x5d52b76230bb1d1dULL, 0x04adc74743b9a946ULL, 0xb0fc71ea008719fbULL,
                  0x9784c99d2bb9eee3ULL, 0x8d6e35168e2829b1ULL, 0x29b912e04a4b6216ULL,
                  0xe544656ff79d939aULL, 0x03755363491a1949ULL, 0x23d9e268de7b8ff3ULL},
                 "PageRank");
  expect_digests(RefinementDigests(PageRank{}, 140, {.use_retract_propagate = true}),
                 {0x7c222d6a19e1074eULL, 0x93cb49bc3e3a44a4ULL, 0xb0fc71ea008719fbULL,
                  0xbe808cc3a9d9d18bULL, 0x2c6b8d11550e4fa5ULL, 0x29b912e04a4b6216ULL,
                  0xd7e1b79c993d4895ULL, 0x6d4b8f5d37084875ULL, 0x23d9e268de7b8ff3ULL},
                 "PageRank, retract/propagate pairs");
  expect_digests(RefinementDigests(PersonalizedPageRank({0, 1, 2}, 600), 141),
                 {0xeab34d849015863fULL, 0xd7a1ad89fc1c4dc9ULL, 0xb5a7c29a19c41525ULL,
                  0xa203846f95674e0aULL, 0x4b579752be587ed6ULL, 0x1eae5cfa4cbb849eULL,
                  0x4027922f17742115ULL, 0x0e6c536af8823aebULL, 0x43b190c05678b697ULL},
                 "PersonalizedPageRank");
  expect_digests(RefinementDigests(BeliefPropagation<3>{}, 142),
                 {0x5ae130b438d5cac4ULL, 0x7e129af1579e8924ULL, 0x1858af0b0fc326c9ULL,
                  0xb63f64db33a2b81cULL, 0x4589898269a5cce7ULL, 0x7f291b4e4ee40420ULL,
                  0x283e2ac6e4093f97ULL, 0x7dcf73550ca264e1ULL, 0xeb93619e8ef33590ULL},
                 "BeliefPropagation");
}

// A weight-free algorithm whose contributions are signed zeros: a source
// whose value turns from +1 to -1 stages exactly the neutral change
// (-0.0 - +0.0 = -0.0, or the pair {+0.0, -0.0}), so it adds nothing to any
// cell though it is a frontier source. A vertex's sign is the parity of
// its out-degree, and every value counts as moved, so each target of a
// level hands its out-edges to the next one.
class SignedZeroProbe {
 public:
  using Value = double;
  using Aggregate = double;
  using Contribution = double;
  static constexpr AggregationKind kKind = AggregationKind::kDecomposable;
  static constexpr bool kWeightFree = true;

  Value InitialValue(VertexId /*v*/, const VertexContext& ctx) const { return Sign(ctx); }
  Aggregate IdentityAggregate() const { return 0.0; }
  Contribution ContributionOf(VertexId /*u*/, const Value& value, Weight /*w*/,
                              const VertexContext& /*ctx*/) const {
    return value * 0.0;
  }
  Contribution DeltaContribution(VertexId /*u*/, const Value& old_value, const Value& new_value,
                                 Weight /*w*/, const VertexContext& /*old_ctx*/,
                                 const VertexContext& /*new_ctx*/) const {
    return new_value * 0.0 - old_value * 0.0;
  }
  void AggregateAtomic(Aggregate* agg, const Contribution& c) const { AtomicAdd(agg, c); }
  void RetractAtomic(Aggregate* agg, const Contribution& c) const { AtomicAdd(agg, -c); }
  void AggregateOwned(Aggregate* agg, const Contribution& c) const { *agg += c; }
  void RetractOwned(Aggregate* agg, const Contribution& c) const { *agg -= c; }
  Value VertexCompute(VertexId /*v*/, const Aggregate& agg, const VertexContext& ctx) const {
    return Sign(ctx) + agg;
  }
  bool ValuesDiffer(const Value& /*a*/, const Value& /*b*/) const { return true; }

 private:
  static double Sign(const VertexContext& ctx) { return ctx.out_degree % 2 == 1 ? -1.0 : 1.0; }
};

// A dense level whose only source of some target stages the neutral change
// must still settle that target: here vertex w's one in-neighbour u flips
// sign when an added edge makes its out-degree odd, and the hub h it points
// to makes level 1 dense. Dropping w from the targets drops its 40
// out-edges from every later level's frontier, which the edge count in the
// digests shows; the constants were recorded with the per-edge frontier
// test.
TEST(Refinement, NeutralStagedSourceStillMarksItsTargets) {
  const size_t original = TaskArena::Instance().num_threads();
  TaskArena::SetNumThreads(1);
  EdgeList edges = GenerateRmat(600, 6000, {.seed = 150});
  const VertexId u = 600;
  const VertexId w = 601;
  const VertexId h = 602;
  for (VertexId v = 0; v < 600; ++v) {
    edges.Add(h, v);
  }
  edges.Add(0, u);
  edges.Add(u, w);
  edges.Add(u, 1);
  for (VertexId v = 2; v < 42; ++v) {
    edges.Add(w, v);
  }
  auto digests = [&](bool retract_propagate) {
    MutableGraph graph(edges);
    GraphBoltEngine<SignedZeroProbe> bolt(&graph, SignedZeroProbe{},
                                          {.use_retract_propagate = retract_propagate});
    bolt.InitialCompute();
    EXPECT_EQ(graph.OutDegree(u) % 2, 0u);
    EXPECT_EQ(graph.InDegree(w), 1u);
    EXPECT_GT(graph.OutDegree(h), graph.num_edges() / 20);  // level 1 is dense
    bolt.ApplyMutations({EdgeMutation::Add(u, h)});
    std::vector<uint64_t> out;
    RecordDigests(bolt, &out);
    return out;
  };
  const std::vector<uint64_t> want = {0x4af7e4b15abaf7d8ULL, 0x53a505c927142be5ULL, 0xcfdaf570ae0489fdULL};
  const std::vector<uint64_t> delta = digests(false);
  EXPECT_EQ(delta, want) << Hex(delta);
  const std::vector<uint64_t> pairs = digests(true);
  EXPECT_EQ(pairs, want) << Hex(pairs);
  TaskArena::SetNumThreads(original);
}

// ----- The weight-free marker is honest --------------------------------------------

static_assert(IsWeightFreeAlgorithm<PageRank>());
static_assert(IsWeightFreeAlgorithm<PersonalizedPageRank>());
static_assert(IsWeightFreeAlgorithm<BeliefPropagation<3>>());
static_assert(!IsWeightFreeAlgorithm<CoEM>());
static_assert(!IsWeightFreeAlgorithm<LabelPropagation<2>>());
static_assert(!IsWeightFreeAlgorithm<CollaborativeFiltering<4>>());

template <typename T>
bool SameBits(const T& a, const T& b) {
  static_assert(std::is_trivially_copyable_v<T>);
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

double RandomScalar(Rng* rng) { return (rng->NextDouble() - 0.5) * 8.0; }

template <typename Value>
Value RandomValue(Rng* rng) {
  if constexpr (std::is_arithmetic_v<Value>) {
    return RandomScalar(rng);
  } else {
    Value value{};
    for (auto& x : value) {
      x = rng->NextDouble();
    }
    return value;
  }
}

VertexContext RandomContext(Rng* rng) {
  VertexContext ctx;
  ctx.out_degree = static_cast<uint32_t>(rng->NextBounded(4));  // 0: dangling
  if (rng->NextBounded(2) == 0) {
    ctx.out_degree = static_cast<uint32_t>(rng->NextBounded(100000));
  }
  ctx.in_degree = static_cast<uint32_t>(rng->NextBounded(1000));
  ctx.out_weight_sum = RandomScalar(rng) * 100.0;
  ctx.in_weight_sum = RandomScalar(rng) * 100.0;
  return ctx;
}

// Whether ContributionOf (and DeltaContribution, when offered) return the
// same bits for every weight as for the unit weight, over random sources,
// values and contexts.
template <typename Algo>
bool ContributionIgnoresWeight(const Algo& algo, uint64_t seed) {
  using Value = typename Algo::Value;
  Rng rng(seed);
  for (int trial = 0; trial < 200; ++trial) {
    const VertexId u = static_cast<VertexId>(rng.NextBounded(600));
    const Value old_value = RandomValue<Value>(&rng);
    const Value new_value = RandomValue<Value>(&rng);
    const VertexContext old_ctx = RandomContext(&rng);
    const VertexContext new_ctx = RandomContext(&rng);
    const auto unit = algo.ContributionOf(u, new_value, kDefaultWeight, new_ctx);
    for (const Weight w : {0.0f, -0.0f, -3.5f, 1e30f, -1e30f,
                           static_cast<Weight>(RandomScalar(&rng))}) {
      if (!SameBits(algo.ContributionOf(u, new_value, w, new_ctx), unit)) {
        return false;
      }
      if constexpr (HasDeltaContribution<Algo>) {
        const auto delta = algo.DeltaContribution(u, old_value, new_value, kDefaultWeight,
                                                  old_ctx, new_ctx);
        if (!SameBits(algo.DeltaContribution(u, old_value, new_value, w, old_ctx, new_ctx),
                      delta)) {
          return false;
        }
      }
    }
  }
  return true;
}

template <typename Algo>
Algo MakeAlgorithm() {
  if constexpr (std::is_same_v<Algo, PersonalizedPageRank>) {
    return PersonalizedPageRank({0, 1, 2}, 600);
  } else {
    return Algo{};
  }
}

template <typename Algo>
class WeightFreeMarker : public ::testing::Test {};
using WeightFreeAlgorithms = ::testing::Types<PageRank, PersonalizedPageRank, BeliefPropagation<3>>;
TYPED_TEST_SUITE(WeightFreeMarker, WeightFreeAlgorithms);

// The engine adds one staged change on every out-edge of a marked
// algorithm, so its contributions must not read the weight at all.
TYPED_TEST(WeightFreeMarker, ContributionIgnoresTheEdgeWeight) {
  EXPECT_TRUE(ContributionIgnoresWeight(MakeAlgorithm<TypeParam>(), 160));
}

// Negative control: the check sees a weighted contribution.
TEST(WeightFreeMarkerControl, CheckCatchesAWeightedContribution) {
  EXPECT_FALSE(ContributionIgnoresWeight(CoEM(600, 0.08, 161), 161));
}

// A scalar or an array of scalars with every element `x`.
template <typename T>
T FilledWith(double x) {
  if constexpr (std::is_arithmetic_v<T>) {
    return static_cast<T>(x);
  } else {
    T filled{};
    for (auto& element : filled) {
      element = x;
    }
    return filled;
  }
}

// Whether PushStaged (owned) of `staged` leaves aggregates holding signed
// zeros, the smallest denormal, ordinary values, infinities or a quiet NaN
// bit for bit as they were. An array aggregate is probed with each value
// in every element and with all of them side by side.
template <typename Algo>
bool StagedLeavesProbesUnchanged(const Algo& algo, bool use_retract_propagate,
                                 const typename Algo::Contribution* staged) {
  using Aggregate = typename Algo::Aggregate;
  const double probes[] = {+0.0,
                           -0.0,
                           std::numeric_limits<double>::denorm_min(),
                           1.0,
                           -1.5,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()};
  std::vector<Aggregate> cells;
  for (const double probe : probes) {
    cells.push_back(FilledWith<Aggregate>(probe));
  }
  if constexpr (!std::is_arithmetic_v<Aggregate>) {
    for (size_t shift = 0; shift < std::size(probes); ++shift) {
      Aggregate mixed{};
      for (size_t i = 0; i < mixed.size(); ++i) {
        mixed[i] = probes[(shift + i) % std::size(probes)];
      }
      cells.push_back(mixed);
    }
  }
  for (const Aggregate& cell : cells) {
    Aggregate pushed = cell;
    DeltaKernel<Algo>::template PushStaged</*kOwned=*/true>(algo, use_retract_propagate, staged,
                                                            &pushed);
    if (!SameBits(pushed, cell)) {
      return false;
    }
  }
  return true;
}

// Every slot of a source outside the frontier holds the neutral change and
// the dense sweeps add it on every in-edge, so it must add nothing, at
// either staged width (BP has no combined delta: width 2 either way).
// Negative control: +0.0 in the aggregate slot turns -0.0 into +0.0.
TYPED_TEST(WeightFreeMarker, NeutralStagedChangeLeavesEveryAggregateBitwiseUnchanged) {
  using Kernel = DeltaKernel<TypeParam>;
  using Contribution = typename TypeParam::Contribution;
  const TypeParam algo = MakeAlgorithm<TypeParam>();
  for (const bool use_retract_propagate : {false, true}) {
    SCOPED_TRACE(use_retract_propagate ? "retract/aggregate pair" : "default staging");
    const size_t width = Kernel::StagedWidth(use_retract_propagate);
    EXPECT_EQ(width, HasDeltaContribution<TypeParam> && !use_retract_propagate ? 1u : 2u);
    Contribution neutral[Kernel::kMaxStagedWidth]{};
    Kernel::StageNeutral(use_retract_propagate, neutral);
    EXPECT_TRUE(StagedLeavesProbesUnchanged(algo, use_retract_propagate, neutral));

    Contribution positive_zero[Kernel::kMaxStagedWidth]{};
    Kernel::StageNeutral(use_retract_propagate, positive_zero);
    positive_zero[width - 1] = FilledWith<Contribution>(+0.0);  // the aggregate slot
    EXPECT_FALSE(StagedLeavesProbesUnchanged(algo, use_retract_propagate, positive_zero));
  }
}

// ----- The selective marker is honest ----------------------------------------------

static_assert(IsSelectiveAggregation<Sssp>());
static_assert(IsSelectiveAggregation<Bfs>());
static_assert(IsSelectiveAggregation<ConnectedComponents>());
static_assert(IsSelectiveAggregation<WidestPath>());
static_assert(!IsSelectiveAggregation<MultiSourceReach>());
static_assert(!IsSelectiveAggregation<PageRank>());

// An input of a min/max-style aggregation: a random value, a sentinel the
// algorithms use (the identity, unreachable, infinite capacity, zero), or
// a contribution derived from a random value through a random weight.
template <typename Algo>
typename Algo::Aggregate RandomInput(const Algo& algo, Rng* rng) {
  using Aggregate = typename Algo::Aggregate;
  if constexpr (std::is_floating_point_v<Aggregate>) {
    const Aggregate sentinels[] = {algo.IdentityAggregate(), kUnreachable, kInfiniteCapacity,
                                   0.0, -0.0, 1.0};
    switch (rng->NextBounded(3)) {
      case 0:
        return sentinels[rng->NextBounded(std::size(sentinels))];
      case 1:
        return RandomScalar(rng);
      default:
        return algo.ContributionOf(static_cast<VertexId>(rng->NextBounded(600)),
                                   std::fabs(RandomScalar(rng)),
                                   static_cast<Weight>(rng->NextDouble() * 4.0), VertexContext{});
    }
  } else {
    return rng->Next() & rng->Next();  // a random bit set
  }
}

// Whether folding b onto a (owned and atomic alike) gives, bit for bit, a
// or b — the contract the selective refinement and the dominated-deletion
// rule rely on.
template <typename Algo>
bool FoldSelectsAnInput(const Algo& algo, uint64_t seed) {
  Rng rng(seed);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto a = RandomInput(algo, &rng);
    const auto b = RandomInput(algo, &rng);
    auto owned = a;
    algo.AggregateOwned(&owned, b);
    auto atomic = a;
    algo.AggregateAtomic(&atomic, b);
    if (!(SameBits(owned, a) || SameBits(owned, b)) || !SameBits(atomic, owned)) {
      return false;
    }
  }
  return true;
}

template <typename Algo>
Algo MakeSelectiveAlgorithm() {
  if constexpr (std::is_same_v<Algo, ConnectedComponents>) {
    return ConnectedComponents{};
  } else {
    return Algo(0);
  }
}

template <typename Algo>
class SelectiveMarker : public ::testing::Test {};
using SelectiveAlgorithms = ::testing::Types<Sssp, Bfs, ConnectedComponents, WidestPath>;
TYPED_TEST_SUITE(SelectiveMarker, SelectiveAlgorithms);

// The engine folds new contributions into a marked algorithm's stored
// aggregates and re-evaluates only where an attaining input left, so the
// fold must select one of its inputs.
TYPED_TEST(SelectiveMarker, AggregateOfTwoInputsIsOneOfThem) {
  EXPECT_TRUE(FoldSelectsAnInput(MakeSelectiveAlgorithm<TypeParam>(), 180));
}

// Negative control: the check sees that OR combines its inputs.
TEST(SelectiveMarkerControl, CheckCatchesBitwiseOr) {
  EXPECT_FALSE(FoldSelectsAnInput(MultiSourceReach({0, 1}, 600), 181));
}

// ----- Selective refinement is exact -------------------------------------------------

// Mixed addition/deletion batches of every size through the selective
// (fold, then re-evaluate the lost targets) refinement, at one and four
// workers and with the paper's full re-evaluation: after each batch the
// values and every stored level equal, bit for bit, a from-scratch
// InitialCompute on the mutated graph. Refinement keeps any levels past the
// point where the fresh run converges; those equal its last level.
template <typename Algo>
void ExpectSelectiveRefinementExact(const typename GraphBoltEngine<Algo>::Options& options,
                                    size_t threads, uint64_t seed) {
  const size_t original = TaskArena::Instance().num_threads();
  TaskArena::SetNumThreads(threads);
  const Algo algo = MakeSelectiveAlgorithm<Algo>();
  EdgeList full = GenerateRmat(600, 6000, {.seed = seed, .assign_random_weights = true});
  StreamSplit split = SplitForStreaming(full, 0.5, seed + 1);
  MutableGraph graph(split.initial);
  GraphBoltEngine<Algo> bolt(&graph, algo, options);
  bolt.InitialCompute();
  UpdateStream stream(split.held_back, seed + 2);
  size_t step = 0;
  for (const size_t size : {1, 1, 1, 3, 10, 40, 150, 600, 1, 1}) {
    ++step;
    bolt.ApplyMutations(stream.NextBatch(graph, {.size = size, .add_fraction = 0.5}));
    MutableGraph fresh_graph(graph.ToEdgeList());
    GraphBoltEngine<Algo> fresh(&fresh_graph, algo, options);
    fresh.InitialCompute();
    ASSERT_EQ(bolt.values().size(), fresh.values().size());
    EXPECT_EQ(std::memcmp(bolt.values().data(), fresh.values().data(),
                          fresh.values().size() * sizeof(typename Algo::Value)),
              0)
        << "values differ after batch " << step << " of size " << size;
    const uint32_t fresh_levels = fresh.store().tracked_levels();
    ASSERT_GE(bolt.store().tracked_levels(), fresh_levels);
    EXPECT_EQ(bolt.store().tracked_levels(), bolt.store().total_levels());
    for (uint32_t level = 1; level <= bolt.store().tracked_levels(); ++level) {
      const auto& want = fresh.store().LevelArray(std::min(level, fresh_levels));
      EXPECT_EQ(std::memcmp(bolt.store().LevelArray(level).data(), want.data(),
                            want.size() * sizeof(typename Algo::Aggregate)),
                0)
          << "level " << level << " differs after batch " << step << " of size " << size;
    }
  }
  TaskArena::SetNumThreads(original);
}

template <typename Algo>
class SelectiveRefinement : public ::testing::Test {};
TYPED_TEST_SUITE(SelectiveRefinement, SelectiveAlgorithms);

TYPED_TEST(SelectiveRefinement, MixedBatchesMatchFreshRunBitwise) {
  const typename GraphBoltEngine<TypeParam>::Options converge{.max_iterations = 128,
                                                              .run_to_convergence = true};
  auto full_reevaluation = converge;
  full_reevaluation.disable_monotonic_push = true;
  for (const size_t threads : {1, 4}) {
    SCOPED_TRACE(threads);
    ExpectSelectiveRefinementExact<TypeParam>(converge, threads, 190);
    ExpectSelectiveRefinementExact<TypeParam>(full_reevaluation, threads, 191);
    ExpectSelectiveRefinementExact<TypeParam>({}, threads, 192);  // 10 levels, no convergence
  }
}

// ----- Restoring a state whose last levels keep only changed bits ---------------------

// Rewrites a saved SSSP engine state with tracked == total levels into the
// layout an earlier build saved after a refinement ran one level past its
// tracked history: the last level keeps its changed bits and loses its
// aggregates, so tracked == total - 1 with the history far from full.
std::string DropLastTrackedLevel(const std::string& state, bool compact) {
  using Aggregate = Sssp::Aggregate;
  uint64_t n = 0;
  std::memcpy(&n, state.data() + sizeof(uint64_t), sizeof(n));
  const size_t header_at = 2 * sizeof(uint64_t) + n * sizeof(Sssp::Value);
  uint64_t header[4] = {};  // vertices, history size, tracked, total
  std::memcpy(header, state.data() + header_at, sizeof(header));
  const uint64_t tracked = header[2];
  EXPECT_EQ(tracked, header[3]);
  EXPECT_GE(tracked, 2u);
  --header[2];
  std::string out = state.substr(0, header_at);
  out.append(reinterpret_cast<const char*>(header), sizeof(header));
  size_t at = header_at + sizeof(header);
  if (!compact) {
    const size_t level_bytes = n * sizeof(Aggregate);
    out.append(state, at, (tracked - 1) * level_bytes);  // drop the last level array
    at += tracked * level_bytes;
  } else {
    for (uint64_t v = 0; v < n; ++v) {  // per vertex: entry count, entries
      uint64_t size = 0;
      std::memcpy(&size, state.data() + at, sizeof(size));
      const uint64_t kept = std::min(size, tracked - 1);
      out.append(reinterpret_cast<const char*>(&kept), sizeof(kept));
      out.append(state, at + sizeof(size), kept * sizeof(Aggregate));
      at += sizeof(size) + size * sizeof(Aggregate);
    }
  }
  out.append(state, at, std::string::npos);  // changed bits (and the dense tail)
  return out;
}

template <typename StoreT>
class OlderLayoutRestore : public ::testing::Test {};
using StoreBackends =
    ::testing::Types<DependencyStore<Sssp::Aggregate>, CompactDependencyStore<Sssp::Aggregate>>;
TYPED_TEST_SUITE(OlderLayoutRestore, StoreBackends);

// The hybrid continuation stores the aggregates of the levels it appends
// only when every earlier level is tracked. After restoring a state with
// tracked < total, refinements that run past total must keep only the
// changed bits of the new levels, and each batch still lands bit for bit
// on a fresh InitialCompute, as does every level the store still tracks.
// The chain 0->1->...->8 with a shortcut 0->3 converges in a few levels;
// deleting the shortcut pushes 8's distance out past them.
TYPED_TEST(OlderLayoutRestore, RefinementPastTotalMatchesFreshRun) {
  using Engine = GraphBoltEngine<Sssp, TypeParam>;
  EdgeList list;
  list.set_num_vertices(9);
  for (VertexId v = 0; v < 8; ++v) {
    list.Add(v, v + 1, 1.0f);
  }
  list.Add(0, 3, 1.0f);
  const typename Engine::Options options{.max_iterations = 128, .run_to_convergence = true};
  MutableGraph graph(list);
  std::string saved;
  {
    Engine original(&graph, Sssp(0), options);
    original.InitialCompute();
    std::ostringstream out;
    ASSERT_TRUE(original.SaveStateTo(out));
    saved = out.str();
  }
  Engine bolt(&graph, Sssp(0), options);
  std::istringstream in(DropLastTrackedLevel(saved, std::is_same_v<TypeParam, CompactDependencyStore<Sssp::Aggregate>>));
  ASSERT_TRUE(bolt.LoadStateFrom(in));
  const uint32_t restored_total = bolt.store().total_levels();
  ASSERT_EQ(bolt.store().tracked_levels() + 1, restored_total);
  ASSERT_LT(restored_total, bolt.store().history_size());

  const MutationBatch batches[] = {
      {EdgeMutation::Delete(0, 3)}, {EdgeMutation::Add(0, 3, 1.0f)},
      {EdgeMutation::Delete(0, 3)}, {EdgeMutation::Add(2, 8, 1.0f), EdgeMutation::Delete(4, 5)},
      {EdgeMutation::Add(4, 5, 1.0f)}};
  size_t step = 0;
  for (const MutationBatch& batch : batches) {
    ++step;
    bolt.ApplyMutations(batch);
    MutableGraph fresh_graph(graph.ToEdgeList());
    Engine fresh(&fresh_graph, Sssp(0), options);
    fresh.InitialCompute();
    ASSERT_EQ(std::memcmp(bolt.values().data(), fresh.values().data(),
                          fresh.values().size() * sizeof(Sssp::Value)),
              0)
        << "values differ after batch " << step;
    EXPECT_LT(bolt.store().tracked_levels(), bolt.store().total_levels());
    const uint32_t fresh_levels = fresh.store().tracked_levels();
    for (uint32_t level = 1; level <= bolt.store().tracked_levels(); ++level) {
      for (VertexId v = 0; v < 9; ++v) {
        EXPECT_TRUE(SameBits(bolt.store().At(level, v),
                             fresh.store().At(std::min(level, fresh_levels), v)))
            << "level " << level << " vertex " << v << " differs after batch " << step;
      }
    }
  }
  EXPECT_GT(bolt.store().total_levels(), restored_total);
}

// ----- Incremental vertex contexts ----------------------------------------------------

// Recomputing only the spliced edges' endpoints and new vertices yields the
// bits of a full pass, through splices with deletions and weight updates,
// vertex growth, a forced rebuild and a background compaction. Batches of
// up to 200 mutations touch fewer than |V|/2 endpoints and take the
// per-vertex path; the 600-mutation rounds take the full-pass branch.
TEST(VertexContexts, IncrementalMatchesFullPass) {
  static_assert(sizeof(VertexContext) == 2 * sizeof(uint32_t) + 2 * sizeof(double));
  EdgeList full = GenerateRmat(2000, 24000, {.seed = 170, .assign_random_weights = true});
  StreamSplit split = SplitForStreaming(full, 0.5, 171);
  MutableGraph graph(split.initial);
  graph.SetCompactionMode(SlackCsr::CompactionMode::kBackground);
  std::vector<VertexContext> contexts = ComputeVertexContexts(graph);
  UpdateStream stream(split.held_back, 172);
  Rng rng(173);

  auto apply = [&](const MutationBatch& batch, const char* what) {
    const AppliedMutations applied = graph.ApplyBatch(batch);
    std::vector<VertexId> touched;
    for (const std::vector<Edge>* edges : {&applied.added, &applied.deleted}) {
      for (const Edge& e : *edges) {
        touched.push_back(e.src);
        touched.push_back(e.dst);
      }
    }
    UpdateVertexContexts(graph, std::move(touched), &contexts);
    const std::vector<VertexContext> expected = ComputeVertexContexts(graph);
    ASSERT_EQ(contexts.size(), expected.size()) << what;
    EXPECT_EQ(std::memcmp(contexts.data(), expected.data(),
                          expected.size() * sizeof(VertexContext)),
              0)
        << what;
  };

  for (int round = 0; round < 6; ++round) {
    const size_t size = round % 2 == 0 ? 150 : 600;
    MutationBatch batch = stream.NextBatch(graph, {.size = size, .add_fraction = 0.4});
    for (int i = 0; i < 20; ++i) {
      const auto u = static_cast<VertexId>(rng.NextBounded(graph.num_vertices()));
      const auto out = graph.OutNeighbors(u);
      if (!out.empty()) {
        batch.push_back(EdgeMutation::UpdateWeight(u, out[rng.NextBounded(out.size())],
                                                   static_cast<Weight>(rng.NextDouble())));
      }
    }
    apply(batch, "splice");
  }

  const VertexId n = graph.num_vertices();
  apply({EdgeMutation::Add(n + 3, 5, 0.25f), EdgeMutation::Add(7, n + 1, 2.5f),
         EdgeMutation::Delete(0, graph.OutDegree(0) > 0 ? graph.OutNeighbors(0)[0] : 1)},
        "vertex growth");
  ASSERT_EQ(graph.num_vertices(), n + 4);

  graph.SetApplyStrategy(MutableGraph::ApplyStrategy::kRebuild);
  apply(stream.NextBatch(graph, {.size = 200, .add_fraction = 0.5}), "rebuild");
  EXPECT_EQ(graph.adaptive_rebuilds(), 1u);
  graph.SetApplyStrategy(MutableGraph::ApplyStrategy::kSplice);

  // Deletions leave slack until a background compaction rewrites the arena.
  while (graph.compaction_stats().background_compactions == 0) {
    apply(stream.NextBatch(graph, {.size = 200, .add_fraction = 0.2}), "slack");
    while (graph.MaintenanceStep(1u << 20)) {
    }
  }
  apply(stream.NextBatch(graph, {.size = 200, .add_fraction = 0.5}), "after compaction");
}

}  // namespace
}  // namespace graphbolt

// Tests targeting the dependency-driven refinement machinery itself:
// the Figure 2 motivation (naive reuse is wrong, refinement is right),
// dependency-store bookkeeping, and refinement edge cases.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>

#include "src/algorithms/belief_propagation.h"
#include "src/algorithms/coem.h"
#include "src/algorithms/collaborative_filtering.h"
#include "src/algorithms/label_propagation.h"
#include "src/algorithms/pagerank.h"
#include "src/algorithms/personalized_pagerank.h"
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

// Digests of values() and of every tracked level array after the initial
// run, an all-dense batch and a single-edge batch, on one worker.
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
  auto record = [&] {
    uint64_t levels = Fnv1a(std::vector<uint64_t>{});
    for (uint32_t level = 1; level <= bolt.store().tracked_levels(); ++level) {
      levels = Fnv1a(bolt.store().LevelArray(level), levels);
    }
    digests.push_back(Fnv1a(bolt.values()));
    digests.push_back(levels);
  };
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
// level instead of once per edge. The staged value is the same function of
// the same arguments, added in the same order, so the refined values and
// every level array keep the bits of the per-edge evaluation; the constants
// were recorded with it (initial run, dense batch, single-edge batch; values
// digest then level digest for each).
TEST(Refinement, WeightFreeStagingKeepsParentBits) {
  auto expect_digests = [](const std::vector<uint64_t>& got, const std::vector<uint64_t>& want,
                           const char* what) { EXPECT_EQ(got, want) << what << ": " << Hex(got); };
  expect_digests(RefinementDigests(PageRank{}, 140),
                 {0x5d52b76230bb1d1dULL, 0x04adc74743b9a946ULL, 0x9784c99d2bb9eee3ULL,
                  0x8d6e35168e2829b1ULL, 0xe544656ff79d939aULL, 0x03755363491a1949ULL},
                 "PageRank");
  expect_digests(RefinementDigests(PageRank{}, 140, {.use_retract_propagate = true}),
                 {0x7c222d6a19e1074eULL, 0x93cb49bc3e3a44a4ULL, 0xbe808cc3a9d9d18bULL,
                  0x2c6b8d11550e4fa5ULL, 0xd7e1b79c993d4895ULL, 0x6d4b8f5d37084875ULL},
                 "PageRank, retract/propagate pairs");
  expect_digests(RefinementDigests(PersonalizedPageRank({0, 1, 2}, 600), 141),
                 {0xeab34d849015863fULL, 0xd7a1ad89fc1c4dc9ULL, 0xa203846f95674e0aULL,
                  0x4b579752be587ed6ULL, 0x4027922f17742115ULL, 0x0e6c536af8823aebULL},
                 "PersonalizedPageRank");
  expect_digests(RefinementDigests(BeliefPropagation<3>{}, 142),
                 {0x5ae130b438d5cac4ULL, 0x7e129af1579e8924ULL, 0xb63f64db33a2b81cULL,
                  0x4589898269a5cce7ULL, 0x283e2ac6e4093f97ULL, 0x7dcf73550ca264e1ULL},
                 "BeliefPropagation");
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

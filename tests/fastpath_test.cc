// Single-update fast-path tier (src/driver/fast_path.h): per-engine
// classification matrices, a randomized soundness oracle (a safe verdict
// must mean the batched apply is a bitwise no-op on engine state), driver
// equivalence between IngestFast and batched replay of the identical
// stream, recovery through fast-path splices under fault injection
// (compiled with GRAPHBOLT_FAULT_INJECTION=1), and a mixed fast/batched
// torture on the 4-lane sharded driver. `ctest -L "concurrency|fault|fuzz"`
// runs it; the sanitizer sweep (tools/run_sanitized_tests.sh) runs it under
// ASan and TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "src/algorithms/pagerank.h"
#include "src/algorithms/sssp.h"
#include "src/core/graphbolt_engine.h"
#include "src/core/streaming_engine.h"
#include "src/driver/fast_path.h"
#include "src/driver/stream_driver.h"
#include "src/engine/ligra_engine.h"
#include "src/fault/checkpoint.h"
#include "src/fault/fault_injector.h"
#include "src/graph/generators.h"
#include "src/graph/mutable_graph.h"
#include "src/kickstarter/kickstarter_engine.h"
#include "src/parallel/task_arena.h"
#include "src/shard/driver_config.h"
#include "src/shard/sharded_driver.h"
#include "src/stream/update_stream.h"
#include "tests/test_util.h"

namespace graphbolt {
namespace {

// The concept is the contract; drift must fail to compile.
static_assert(FastPathEngine<GraphBoltEngine<PageRank>>);
static_assert(FastPathEngine<GraphBoltEngine<Sssp>>);
static_assert(FastPathEngine<KickStarterEngine<KsSsspTraits>>);
static_assert(!FastPathEngine<LigraEngine<PageRank>>);

// Bitwise equality over value arrays — the fast path's contract is stated
// in bits, not tolerances (recovery replay must be exact).
template <typename Value>
bool SameValueBits(const std::vector<Value>& a, const std::vector<Value>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(Value)) == 0);
}

// A single-mutation stream interleaving generated updates with guaranteed
// graph no-ops (self-loops normalize to nothing for every algorithm), so
// each run deterministically exercises both the safe splice and the
// escalation route.
std::vector<EdgeMutation> MakeSingleMutationStream(const StreamSplit& split, size_t count,
                                                   uint64_t seed) {
  MutableGraph shadow(split.initial);
  UpdateStream stream(split.held_back, seed);
  std::vector<EdgeMutation> mutations;
  for (size_t i = 0; i < count; ++i) {
    if (i % 5 == 4) {
      const auto v = static_cast<VertexId>(i % shadow.num_vertices());
      mutations.push_back(EdgeMutation::Add(v, v));  // self-loop: always a no-op
      continue;
    }
    MutationBatch one = stream.NextBatch(shadow, {.size = 1, .add_fraction = 0.6});
    shadow.ApplyBatch(one);
    for (const EdgeMutation& m : one) {
      mutations.push_back(m);
    }
  }
  return mutations;
}

// ----- Classification matrices ---------------------------------------------

// A small weighted DAG-with-one-back-edge where every verdict is derivable
// by hand. SSSP from 0: d0=0, d1=1, d2=2 (via 1->2), d3=3, d4=inf.
EdgeList SmallWeightedGraph() {
  EdgeList list;
  list.set_num_vertices(5);
  list.Add(0, 1, 1.0f);
  list.Add(1, 2, 1.0f);
  list.Add(0, 2, 5.0f);   // dominated by 0->1->2 in the final state
  list.Add(2, 3, 1.0f);
  list.Add(3, 2, 50.0f);  // never attains the aggregate at 2, at any level
  return list;
}

TEST(FastPathClassify, KickStarterMatrix) {
  MutableGraph graph(SmallWeightedGraph());
  KickStarterEngine<KsSsspTraits> engine(&graph, KsSsspTraits(0));

  // Before InitialCompute nothing is provable.
  EXPECT_FALSE(engine.ClassifyFast(EdgeMutation::Add(0, 1, 1.0f)).safe);

  engine.InitialCompute();
  ASSERT_EQ(engine.values()[2], 2.0);
  ASSERT_EQ(engine.parents()[2], 1u);  // the tree routes 2 through 1

  // Graph no-ops are safe for every algorithm.
  EXPECT_TRUE(engine.ClassifyFast(EdgeMutation::Add(0, 1, 1.0f)).safe);   // duplicate
  EXPECT_TRUE(engine.ClassifyFast(EdgeMutation::Delete(0, 4)).safe);      // absent
  EXPECT_TRUE(engine.ClassifyFast(EdgeMutation::Add(3, 3, 1.0f)).safe);   // self-loop

  // Additions: safe iff the relaxation cannot beat the target's value.
  EXPECT_TRUE(engine.ClassifyFast(EdgeMutation::Add(2, 0, 10.0f)).safe);  // 12 > 0
  EXPECT_FALSE(engine.ClassifyFast(EdgeMutation::Add(0, 3, 0.5f)).safe);  // 0.5 < 3
  EXPECT_FALSE(engine.ClassifyFast(EdgeMutation::Add(0, 4, 1.0f)).safe);  // reaches 4

  // Deletions: safe iff the edge is not in the dependence tree.
  EXPECT_FALSE(engine.ClassifyFast(EdgeMutation::Delete(0, 1)).safe);  // tree edge
  EXPECT_TRUE(engine.ClassifyFast(EdgeMutation::Delete(0, 2)).safe);   // parent of 2 is 1

  // Growing the vertex set is never a fast splice.
  EXPECT_FALSE(engine.ClassifyFast(EdgeMutation::Add(0, 99, 1.0f)).safe);

  // ApplyFastSafe re-validates: unsafe mutations are refused untouched.
  const std::vector<double> before = engine.values();
  EXPECT_FALSE(engine.ApplyFastSafe(EdgeMutation::Add(0, 3, 0.5f)));
  EXPECT_FALSE(graph.HasEdge(0, 3));
  EXPECT_TRUE(engine.ApplyFastSafe(EdgeMutation::Add(2, 0, 10.0f)));
  EXPECT_TRUE(graph.HasEdge(2, 0));
  EXPECT_TRUE(SameValueBits(before, engine.values()));
}

TEST(FastPathClassify, GraphBoltSsspMatrix) {
  MutableGraph graph(SmallWeightedGraph());
  GraphBoltEngine<Sssp> engine(&graph, Sssp(0),
                               {.max_iterations = 128, .run_to_convergence = true});

  EXPECT_FALSE(engine.ClassifyFast(EdgeMutation::Add(0, 1, 1.0f)).safe);  // not computed

  engine.InitialCompute();
  ASSERT_EQ(engine.values()[3], 3.0);

  // Graph no-ops.
  EXPECT_TRUE(engine.ClassifyFast(EdgeMutation::Add(0, 1, 1.0f)).safe);
  EXPECT_TRUE(engine.ClassifyFast(EdgeMutation::Delete(0, 4)).safe);

  // A heavy addition that cannot relax the target at any tracked level.
  EXPECT_TRUE(engine.ClassifyFast(EdgeMutation::Add(1, 3, 10.0f)).safe);
  // An improving addition must escalate.
  EXPECT_FALSE(engine.ClassifyFast(EdgeMutation::Add(0, 3, 0.5f)).safe);

  // 0->2 attains the level-1 aggregate at 2 (before 1's distance exists),
  // so deleting it rewrites the store even though the final value stands.
  EXPECT_FALSE(engine.ClassifyFast(EdgeMutation::Delete(0, 2)).safe);
  // 3->2 is strictly dominated at every level: deletion is a pure splice.
  EXPECT_TRUE(engine.ClassifyFast(EdgeMutation::Delete(3, 2)).safe);

  const std::vector<double> before = engine.values();
  EXPECT_TRUE(engine.ApplyFastSafe(EdgeMutation::Delete(3, 2)));
  EXPECT_FALSE(graph.HasEdge(3, 2));
  EXPECT_TRUE(SameValueBits(before, engine.values()));
}

TEST(FastPathClassify, PageRankOnlyGraphNoopsAreSafe) {
  MutableGraph graph(PaperFigure2aGraph());
  GraphBoltEngine<PageRank> engine(&graph, PageRank{});
  engine.InitialCompute();

  EXPECT_TRUE(engine.ClassifyFast(EdgeMutation::Add(0, 1)).safe);     // duplicate
  EXPECT_TRUE(engine.ClassifyFast(EdgeMutation::Delete(1, 4)).safe);  // absent
  // Real mutations shift the endpoint's degree context, which moves its
  // contribution along every incident edge — never provable.
  EXPECT_FALSE(engine.ClassifyFast(EdgeMutation::Add(0, 4)).safe);
  EXPECT_FALSE(engine.ClassifyFast(EdgeMutation::Delete(3, 4)).safe);
}

// ----- Randomized soundness oracle -----------------------------------------

// The definition of "safe", checked directly: whenever ClassifyFast says
// safe, running the mutation through the full batched ApplyMutations path
// must leave the computed values bitwise unchanged. Returns (safe, total)
// so callers can require the sweep was not vacuous.
template <typename Engine>
std::pair<uint64_t, uint64_t> SweepOracle(Engine& engine,
                                          const std::vector<EdgeMutation>& mutations) {
  uint64_t safe = 0;
  for (const EdgeMutation& m : mutations) {
    const bool verdict = engine.ClassifyFast(m).safe;
    const auto before = engine.values();
    engine.ApplyMutations(MutationBatch{m});
    if (verdict) {
      ++safe;
      EXPECT_TRUE(SameValueBits(before, engine.values()))
          << "safe verdict but batched apply moved values: kind="
          << static_cast<int>(m.kind) << " " << m.src << "->" << m.dst;
    }
  }
  return {safe, mutations.size()};
}

TEST(FastPathOracle, SafeVerdictImpliesBitwiseNoopAcrossSeeds) {
  TaskArena::SetNumThreads(1);
  uint64_t ks_safe = 0;
  uint64_t gb_safe = 0;
  for (const uint64_t seed : FuzzSeeds()) {
    EdgeList full = GenerateRmat(600, 5000, {.seed = seed, .assign_random_weights = true});
    StreamSplit split = SplitForStreaming(full, 0.5, seed + 1);
    const std::vector<EdgeMutation> mutations =
        MakeSingleMutationStream(split, 120, seed + 2);
    {
      MutableGraph graph(split.initial);
      KickStarterEngine<KsSsspTraits> engine(&graph, KsSsspTraits(0));
      engine.InitialCompute();
      ks_safe += SweepOracle(engine, mutations).first;
    }
    {
      MutableGraph graph(split.initial);
      GraphBoltEngine<Sssp> engine(&graph, Sssp(0),
                                   {.max_iterations = 128, .run_to_convergence = true});
      engine.InitialCompute();
      gb_safe += SweepOracle(engine, mutations).first;
    }
  }
  // The interleaved self-loops alone guarantee both sweeps see safes.
  EXPECT_GT(ks_safe, 0u);
  EXPECT_GT(gb_safe, 0u);
}

// ----- Driver equivalence ---------------------------------------------------

// Streams every mutation through IngestFast (safe ones splice, unsafe ones
// escalate into the gutter and are flushed as a 1-mutation batch) and
// requires the values to stay bitwise identical to a reference engine that
// applies every mutation through the batched path. One pool thread keeps
// both paths deterministic, so the comparison is exact.
template <StreamingEngine Engine>
void ExpectFastPathMatchesBatchedReplay(Engine& engine, Engine& reference,
                                        const std::vector<EdgeMutation>& mutations) {
  engine.InitialCompute();
  reference.InitialCompute();
  StreamDriver<Engine> driver(&engine, {.batch_size = 1u << 20,
                                        .flush_interval_seconds = 3600.0,
                                        .coalesce = false,
                                        .fast_path = true});
  size_t step = 0;
  for (const EdgeMutation& m : mutations) {
    ASSERT_TRUE(driver.IngestFast(m));
    driver.Flush();  // an escalated mutation becomes its own micro-batch
    reference.ApplyMutations(MutationBatch{m});
    if (++step % 16 == 0) {
      driver.PrepQuery();
      ASSERT_TRUE(SameValueBits(engine.values(), reference.values()))
          << "diverged at mutation " << step;
    }
  }
  driver.PrepQuery();
  ASSERT_TRUE(SameValueBits(engine.values(), reference.values()));

  const EngineStats stats = driver.stats();
  EXPECT_EQ(stats.fastpath_safe_applied + stats.fastpath_unsafe_escalated, mutations.size());
  EXPECT_GT(stats.fastpath_safe_applied, 0u);       // the self-loops at minimum
  EXPECT_GT(stats.fastpath_unsafe_escalated, 0u);   // random stream always has some
  EXPECT_EQ(stats.fastpath_epoch_flips, stats.fastpath_safe_applied);
  EXPECT_EQ(stats.mutations_enqueued, mutations.size());
  EXPECT_EQ(stats.mutations_dropped, 0u);
}

TEST(FastPathDriver, KickStarterBitwiseEqualsBatchedReplayAcrossSeeds) {
  TaskArena::SetNumThreads(1);
  for (const uint64_t seed : FuzzSeeds()) {
    EdgeList full = GenerateRmat(700, 5500, {.seed = seed + 10, .assign_random_weights = true});
    StreamSplit split = SplitForStreaming(full, 0.5, seed + 11);
    const std::vector<EdgeMutation> mutations =
        MakeSingleMutationStream(split, 150, seed + 12);
    MutableGraph g_driver(split.initial);
    MutableGraph g_ref(split.initial);
    KickStarterEngine<KsSsspTraits> engine(&g_driver, KsSsspTraits(0));
    KickStarterEngine<KsSsspTraits> reference(&g_ref, KsSsspTraits(0));
    ExpectFastPathMatchesBatchedReplay(engine, reference, mutations);
  }
}

TEST(FastPathDriver, SsspBitwiseEqualsBatchedReplayAcrossSeeds) {
  TaskArena::SetNumThreads(1);
  for (const uint64_t seed : FuzzSeeds()) {
    EdgeList full = GenerateRmat(500, 4000, {.seed = seed + 20, .assign_random_weights = true});
    StreamSplit split = SplitForStreaming(full, 0.5, seed + 21);
    const std::vector<EdgeMutation> mutations =
        MakeSingleMutationStream(split, 80, seed + 22);
    MutableGraph g_driver(split.initial);
    MutableGraph g_ref(split.initial);
    const GraphBoltEngine<Sssp>::Options options{.max_iterations = 128,
                                                 .run_to_convergence = true};
    GraphBoltEngine<Sssp> engine(&g_driver, Sssp(0), options);
    GraphBoltEngine<Sssp> reference(&g_ref, Sssp(0), options);
    ExpectFastPathMatchesBatchedReplay(engine, reference, mutations);
  }
}

TEST(FastPathDriver, DisabledOptionFallsBackToBatched) {
  MutableGraph graph(SmallWeightedGraph());
  KickStarterEngine<KsSsspTraits> engine(&graph, KsSsspTraits(0));
  engine.InitialCompute();
  StreamDriver<KickStarterEngine<KsSsspTraits>> driver(
      &engine, {.batch_size = 1u << 20, .flush_interval_seconds = 3600.0, .fast_path = false});
  // A provably safe mutation still lands in the gutter when the option is
  // off: IngestFast degrades to Ingest exactly.
  ASSERT_TRUE(driver.IngestFast(EdgeMutation::Add(2, 0, 10.0f)));
  EXPECT_EQ(driver.pending_mutations(), 1u);
  EXPECT_EQ(driver.stats().fastpath_safe_applied, 0u);
  EXPECT_EQ(driver.stats().fastpath_unsafe_escalated, 0u);
  driver.PrepQuery();
  EXPECT_TRUE(graph.HasEdge(2, 0));
}

// ----- Recovery through fast-path splices -----------------------------------

// Fast-path safe applies must be journaled exactly like batches: after a
// cold restart, checkpoint + WAL replay (which drives the *batched* path)
// must land bitwise on the state the fast path left behind. A WAL-append
// fault is armed so the lost-append → forced-checkpoint branch of the fast
// path is exercised too.
TEST(FastPathRecovery, ColdRestartBitwiseThroughFastPath) {
  TaskArena::SetNumThreads(1);
  ScopedTempDir tmp("fastpath_recovery");
  EdgeList full = GenerateRmat(800, 6500, {.seed = 91, .assign_random_weights = true});
  StreamSplit split = SplitForStreaming(full, 0.5, 92);
  const std::vector<EdgeMutation> mutations = MakeSingleMutationStream(split, 200, 93);

  std::vector<double> live_values;
  std::vector<VertexId> live_parents;
  uint64_t live_safe = 0;
  {
    MutableGraph graph(split.initial);
    KickStarterEngine<KsSsspTraits> engine(&graph, KsSsspTraits(0));
    engine.InitialCompute();
    FaultInjector injector(/*seed=*/0xfa57);
    Checkpointer<KickStarterEngine<KsSsspTraits>> checkpointer(
        &engine, &graph, {.directory = tmp.path(), .cadence_batches = 1u << 20}, &injector);
    StreamDriver<KickStarterEngine<KsSsspTraits>> driver(
        &engine,
        {.batch_size = 1u << 20, .flush_interval_seconds = 3600.0, .coalesce = false,
         .fast_path = true},
        &checkpointer, &injector);
    ASSERT_TRUE(driver.CheckpointNow());  // baseline
    injector.ArmOnce(FaultSite::kWalAppend, 5, /*burst=*/3);  // 5th append loses all retries
    for (size_t i = 0; i < mutations.size(); ++i) {
      ASSERT_TRUE(driver.IngestFast(mutations[i]));
      if (i % 25 == 24) {
        driver.Flush();
      }
    }
    driver.PrepQuery();
    EXPECT_GE(injector.fired(FaultSite::kWalAppend), 1u);
    live_safe = driver.stats().fastpath_safe_applied;
    EXPECT_GT(live_safe, 0u);
    live_values = engine.values();
    live_parents = engine.parents();
  }

  // Second "process": nothing in memory, everything from disk.
  MutableGraph graph;
  KickStarterEngine<KsSsspTraits> engine(&graph, KsSsspTraits(0));
  Checkpointer<KickStarterEngine<KsSsspTraits>> checkpointer(
      &engine, &graph, {.directory = tmp.path(), .cadence_batches = 1u << 20});
  StreamDriver<KickStarterEngine<KsSsspTraits>> driver(
      &engine,
      {.batch_size = 1u << 20, .flush_interval_seconds = 3600.0, .coalesce = false,
       .fast_path = true},
      &checkpointer);
  ASSERT_TRUE(driver.Recover());
  ASSERT_EQ(engine.values().size(), live_values.size());
  EXPECT_TRUE(SameValueBits(live_values, engine.values()));
  for (size_t v = 0; v < live_parents.size(); ++v) {
    ASSERT_EQ(engine.parents()[v], live_parents[v]) << "parent of " << v;
  }
}

// In-process recovery reuses the engine: the graph is replaced by a
// checkpoint snapshot taken before the graph grew, while a fast-path splice
// since the last batch has queued a vertex the snapshot does not have.
// Restoring the state must drop that queue, or the next batch that does not
// grow the graph back refreshes the context of a vertex past |V|.
TEST(FastPathRecovery, RestoreToSmallerGraphDropsQueuedSpliceEndpoints) {
  const GraphBoltEngine<Sssp>::Options options{.max_iterations = 128,
                                               .run_to_convergence = true};
  const EdgeList snapshot = SmallWeightedGraph();
  MutableGraph graph(snapshot);
  GraphBoltEngine<Sssp> engine(&graph, Sssp(0), options);
  engine.InitialCompute();
  std::stringstream state;
  ASSERT_TRUE(engine.SaveStateTo(state));

  engine.ApplyMutations({EdgeMutation::Add(7, 6, 1.0f)});
  ASSERT_EQ(graph.num_vertices(), 8u);
  // 7 is unreachable, so its new out-edge cannot relax 4: a safe splice
  // that queues vertex 7.
  ASSERT_TRUE(engine.ClassifyFast(EdgeMutation::Add(7, 4, 1.0f)).safe);
  ASSERT_TRUE(engine.ApplyFastSafe(EdgeMutation::Add(7, 4, 1.0f)));

  graph = MutableGraph(snapshot);
  ASSERT_TRUE(engine.LoadStateFrom(state));
  const MutationBatch replay{EdgeMutation::Add(1, 4, 2.0f)};
  engine.ApplyMutations(replay);
  ASSERT_EQ(graph.num_vertices(), 5u);

  MutableGraph fresh_graph(snapshot);
  fresh_graph.ApplyBatch(replay);
  GraphBoltEngine<Sssp> fresh(&fresh_graph, Sssp(0), options);
  fresh.InitialCompute();
  EXPECT_TRUE(SameValueBits(fresh.values(), engine.values()));
  EXPECT_EQ(engine.values()[4], 3.0);
}

// ----- Sharded torture -------------------------------------------------------

// Four producers hammer a 4-lane sharded driver, each alternating the fast
// path with batched ingestion, while the main thread takes query barriers.
// The stream is addition-only, so the SSSP fixpoint is order-independent
// and the drained state must equal a from-scratch run on the final graph.
TEST(FastPathSharded, MixedFastBatchedTortureOnFourLanes) {
  TaskArena::SetNumThreads(2);
  EdgeList full = GenerateRmat(1000, 12000, {.seed = 95, .assign_random_weights = true});
  StreamSplit split = SplitForStreaming(full, 0.5, 96);

  MutableGraph graph(split.initial);
  KickStarterEngine<KsSsspTraits> engine(&graph, KsSsspTraits(0));
  engine.InitialCompute();

  DriverConfig config;
  config.shards = 4;
  config.batch_size = 64;
  config.flush_interval_seconds = 0.002;
  config.fast_path = true;
  ShardedDriver<KickStarterEngine<KsSsspTraits>> driver(&engine, config);

  constexpr size_t kProducers = 4;
  std::vector<std::vector<Edge>> slices(kProducers);
  for (size_t i = 0; i < split.held_back.size(); ++i) {
    slices[i % kProducers].push_back(split.held_back[i]);
  }
  std::atomic<uint64_t> fast_calls{0};
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      auto session = driver.OpenSession("tenant-" + std::to_string(p));
      for (size_t i = 0; i < slices[p].size(); ++i) {
        const Edge& e = slices[p][i];
        const EdgeMutation m = EdgeMutation::Add(e.src, e.dst, e.weight);
        if (i % 2 == 0) {
          fast_calls.fetch_add(1, std::memory_order_relaxed);
          ASSERT_TRUE(session.IngestFast(m));
        } else {
          ASSERT_TRUE(session.Ingest(m));
        }
      }
    });
  }
  for (int q = 0; q < 3; ++q) {
    std::vector<double> snapshot = driver.QuerySnapshot();
    ASSERT_EQ(snapshot.size(), graph.num_vertices());
  }
  for (std::thread& t : producers) {
    t.join();
  }
  driver.PrepQuery();

  const EngineStats stats = driver.stats();
  EXPECT_EQ(stats.mutations_enqueued, split.held_back.size());
  EXPECT_EQ(stats.mutations_dropped, 0u);
  EXPECT_EQ(stats.fastpath_epoch_flips, stats.fastpath_safe_applied);
  // Every IngestFast call resolved one way or the other.
  EXPECT_EQ(stats.fastpath_safe_applied + stats.fastpath_unsafe_escalated, fast_calls.load());

  // Addition-only: the shortest-distance fixpoint is unique, so the
  // incremental state must equal a from-scratch run on the final graph.
  MutableGraph final_graph(full);
  KickStarterEngine<KsSsspTraits> fresh(&final_graph, KsSsspTraits(0));
  fresh.InitialCompute();
  ASSERT_EQ(graph.num_edges(), final_graph.num_edges());
  ASSERT_EQ(engine.values().size(), fresh.values().size());
  for (size_t v = 0; v < engine.values().size(); ++v) {
    ASSERT_EQ(engine.values()[v], fresh.values()[v]) << "vertex " << v;
  }
}

}  // namespace
}  // namespace graphbolt

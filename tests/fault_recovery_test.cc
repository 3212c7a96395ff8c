// ChaosStream differential tier: every fault-injection site fired against a
// checkpointing driver (one lane and four), and the recovered result
// compared bitwise with a fault-free sequential ApplyMutations loop over
// the same pre-generated batch stream. One pool thread keeps both paths
// deterministic, so equality is exact (==), not approximate.
//
// This target is compiled with GRAPHBOLT_FAULT_INJECTION=1 (the library,
// benches, and examples are not), which is what turns GB_FAULT_POINT from
// the literal `false` into a live hook. `ctest -L fault` runs it; the
// sanitizer sweep (tools/run_sanitized_tests.sh) runs it under ASan and
// TSan.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/algorithms/pagerank.h"
#include "src/algorithms/sssp.h"
#include "src/core/graphbolt_engine.h"
#include "src/core/streaming_engine.h"
#include "src/driver/stream_driver.h"
#include "src/engine/reset_engine.h"
#include "src/fault/checkpoint.h"
#include "src/fault/fault_injector.h"
#include "src/fault/wal.h"
#include "src/graph/generators.h"
#include "src/graph/mutable_graph.h"
#include "src/graph/mutation.h"
#include "src/kickstarter/kickstarter_engine.h"
#include "src/parallel/task_arena.h"
#include "src/shard/driver_config.h"
#include "src/stream/update_stream.h"
#include "tests/test_util.h"

namespace graphbolt {
namespace {

// Pre-generates `count` batches against an evolving shadow graph so the
// faulty driver run and the fault-free reference see the identical stream.
std::vector<MutationBatch> MakeBatches(const StreamSplit& split, size_t count, size_t batch_size,
                                       uint64_t seed) {
  MutableGraph shadow(split.initial);
  UpdateStream stream(split.held_back, seed);
  std::vector<MutationBatch> batches;
  for (size_t i = 0; i < count; ++i) {
    MutationBatch batch = stream.NextBatch(shadow, {.size = batch_size, .add_fraction = 0.6});
    shadow.ApplyBatch(batch);
    batches.push_back(std::move(batch));
  }
  return batches;
}

// Drives the barrier on a possibly-crashed driver: recover, then drain.
// A kill can land during the barrier itself, so loop until a barrier
// completes on healthy workers.
template <StreamingEngine Engine>
void DrainWithRecovery(StreamDriver<Engine>& driver) {
  for (int attempt = 0; attempt < 8; ++attempt) {
    if (!driver.healthy()) {
      ASSERT_TRUE(driver.Recover());
    }
    driver.PrepQuery();
    if (driver.healthy()) {
      return;
    }
  }
  FAIL() << "worker kept dying across 8 recovery attempts";
}

// With more than one lane the driver promotes per-lane slices of the input
// batches, one promotion fusing the queue heads of several lanes. Split by
// source shard and concatenated, the promotions must be exactly that
// shard's mutations of the input stream in input order: none reordered,
// altered, duplicated or skipped.
void ExpectPromotionsSliceInput(const std::vector<MutationBatch>& batches,
                                const std::vector<MutationBatch>& promoted, size_t shards) {
  using Key = std::tuple<MutationKind, VertexId, VertexId, Weight>;
  auto key = [](const EdgeMutation& m) { return Key{m.kind, m.src, m.dst, m.weight}; };
  std::vector<std::vector<Key>> want(shards);
  std::vector<std::vector<Key>> got(shards);
  for (const MutationBatch& batch : batches) {
    for (const EdgeMutation& m : batch) {
      want[m.src % shards].push_back(key(m));
    }
  }
  for (const MutationBatch& batch : promoted) {
    ASSERT_FALSE(batch.empty());
    for (const EdgeMutation& m : batch) {
      got[m.src % shards].push_back(key(m));
    }
  }
  for (size_t s = 0; s < shards; ++s) {
    EXPECT_EQ(got[s], want[s]) << "shard " << s;
  }
}

// The full matrix: arm every site (seeded, one-shot) against one driver
// run, recovering whenever a lane worker dies, and require the final state
// to be bitwise identical to the fault-free sequential loop. The arm points
// are chosen so the injected faults compose: the WAL record for batch 6 is
// lost past its retries (forcing a checkpoint), the cadence checkpoint at
// batch 6 needs a retry, the committed checkpoint at batch 9 is torn (so
// recovery must fall back to batch 6 and replay the WAL tail), a spurious
// queue-full bounces one flush to the blocking path, and a lane worker is
// killed after the 10th applied batch. At one lane the sequential loop
// applies the input batches. With more than one lane each batch splits
// into per-lane slices, and which slices one promotion fuses is up to the
// lane workers, so the loop replays the promotions the apply observer
// recorded, once they are checked against the input stream.
template <StreamingEngine Engine>
void ExpectFaultyDriverMatchesSequential(Engine& engine, MutableGraph& graph, Engine& reference,
                                         const std::vector<MutationBatch>& batches,
                                         const std::string& dir, size_t shards) {
  engine.InitialCompute();
  reference.InitialCompute();

  FaultInjector injector;
  Checkpointer<Engine> checkpointer(
      &engine, &graph, {.directory = dir, .cadence_batches = 3, .keep = 2}, &injector);
  StreamDriver<Engine> driver(&engine,
                              {.shards = shards,
                               .batch_size = 1u << 20,
                               .flush_interval_seconds = 3600.0,
                               .coalesce = false},
                              &checkpointer, &injector);
  std::vector<MutationBatch> promoted;  // global apply order (more than one lane)
  driver.set_apply_observer(
      [&](size_t, const MutationBatch& batch) { promoted.push_back(batch); });
  ASSERT_TRUE(driver.CheckpointNow());  // baseline: recoverable before batch 1

  injector.ArmOnce(FaultSite::kWalAppend, 6, /*burst=*/3);  // batch 6 loses all 3 attempts
  injector.ArmOnce(FaultSite::kCheckpointWrite, 3);         // 3rd write attempt fails once
  injector.ArmOnce(FaultSite::kTornCheckpoint, 4);          // 4th committed file torn
  injector.ArmOnce(FaultSite::kQueueFull, 5);               // 5th flush bounces to Push
  injector.ArmOnce(FaultSite::kWorkerKill, 10);             // dies after 10 applies

  for (size_t i = 0; i < batches.size(); ++i) {
    ASSERT_EQ(driver.IngestBatch(batches[i]), batches[i].size());
    driver.Flush();
    if (shards == 1) {
      reference.ApplyMutations(batches[i]);
    } else {
      // A killed lane's siblings keep draining their queues, so without a
      // barrier they could run on to an intact checkpoint before Recover()
      // lands and leave it no WAL tail. With one batch in flight the run
      // stops inside the batch that killed the lane, past the checkpoint
      // recovery falls back to, so there is always a tail to replay.
      driver.PrepQuery();
    }
    if (!driver.healthy()) {
      ASSERT_TRUE(driver.Recover());
    }
  }
  DrainWithRecovery(driver);
  if (shards > 1) {
    ExpectPromotionsSliceInput(batches, promoted, shards);
    for (const MutationBatch& batch : promoted) {
      reference.ApplyMutations(batch);
    }
  }

  // Every armed site must actually have fired — otherwise the matrix is
  // vacuous. (The sentinel sites kQuarantineAppend/kStageStall have their
  // own tests in sentinel_test.cc and are not armed here.)
  for (FaultSite s : {FaultSite::kWalAppend, FaultSite::kCheckpointWrite,
                      FaultSite::kTornCheckpoint, FaultSite::kQueueFull,
                      FaultSite::kWorkerKill}) {
    EXPECT_GE(injector.fired(s), 1u) << "site never fired: " << FaultSiteName(s);
  }

  const auto& values = engine.values();
  ASSERT_EQ(values.size(), reference.values().size());
  for (size_t v = 0; v < values.size(); ++v) {
    ASSERT_EQ(values[v], reference.values()[v]) << "vertex " << v;
  }

  const EngineStats stats = driver.stats();
  EXPECT_EQ(stats.batches_applied, shards == 1 ? batches.size() : promoted.size());
  EXPECT_EQ(stats.mutations_dropped, 0u);
  EXPECT_GE(stats.recoveries, 1u);
  EXPECT_GE(stats.batches_replayed, 1u);
  EXPECT_GE(stats.wal_retries, 2u);        // the lost append burned its retries
  EXPECT_GE(stats.checkpoint_retries, 1u);
  EXPECT_GE(stats.checkpoints_written, 3u);
}

// The matrix runs on the one-lane driver and on four lanes, where the kill
// takes down one lane while its siblings keep promoting.
class FaultMatrix : public ::testing::TestWithParam<size_t> {};

TEST_P(FaultMatrix, PageRankRecoversBitwise) {
  TaskArena::SetNumThreads(1);  // deterministic summation order
  ScopedTempDir tmp;
  EdgeList full = GenerateRmat(1500, 12000, {.seed = 11});
  StreamSplit split = SplitForStreaming(full, 0.5, 12);
  std::vector<MutationBatch> batches = MakeBatches(split, 20, 80, 13);

  MutableGraph g_driver(split.initial);
  MutableGraph g_ref(split.initial);
  GraphBoltEngine<PageRank> engine(&g_driver, PageRank{});
  GraphBoltEngine<PageRank> reference(&g_ref, PageRank{});
  ExpectFaultyDriverMatchesSequential(engine, g_driver, reference, batches, tmp.path(),
                                      GetParam());
  EXPECT_EQ(g_driver.ToEdgeList().edges(), g_ref.ToEdgeList().edges());
}

TEST_P(FaultMatrix, SsspRecoversBitwise) {
  TaskArena::SetNumThreads(1);
  ScopedTempDir tmp;
  EdgeList full = GenerateRmat(1200, 9000, {.seed = 21, .assign_random_weights = true});
  StreamSplit split = SplitForStreaming(full, 0.5, 22);
  std::vector<MutationBatch> batches = MakeBatches(split, 20, 60, 23);

  MutableGraph g_driver(split.initial);
  MutableGraph g_ref(split.initial);
  const GraphBoltEngine<Sssp>::Options options{.max_iterations = 128, .run_to_convergence = true};
  GraphBoltEngine<Sssp> engine(&g_driver, Sssp(0), options);
  GraphBoltEngine<Sssp> reference(&g_ref, Sssp(0), options);
  ExpectFaultyDriverMatchesSequential(engine, g_driver, reference, batches, tmp.path(),
                                      GetParam());
}

TEST_P(FaultMatrix, KickStarterRecoversBitwise) {
  TaskArena::SetNumThreads(1);
  ScopedTempDir tmp;
  EdgeList full = GenerateRmat(1000, 8000, {.seed = 31, .assign_random_weights = true});
  StreamSplit split = SplitForStreaming(full, 0.5, 32);
  std::vector<MutationBatch> batches = MakeBatches(split, 20, 50, 33);

  MutableGraph g_driver(split.initial);
  MutableGraph g_ref(split.initial);
  KickStarterEngine<KsSsspTraits> engine(&g_driver, KsSsspTraits(0));
  KickStarterEngine<KsSsspTraits> reference(&g_ref, KsSsspTraits(0));
  ExpectFaultyDriverMatchesSequential(engine, g_driver, reference, batches, tmp.path(),
                                      GetParam());
}

INSTANTIATE_TEST_SUITE_P(Lanes, FaultMatrix, ::testing::Values(size_t{1}, size_t{4}),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "shards" + std::to_string(info.param);
                         });

// Cold-start recovery: a brand-new process (fresh graph, engine, driver)
// pointed at the checkpoint directory of a finished run reconstructs the
// exact state — including KickStarter's dependence tree, which the
// post-recovery deletion batches then exercise.
TEST(ColdRecovery, KickStarterStateSurvivesProcessRestart) {
  TaskArena::SetNumThreads(1);
  ScopedTempDir tmp;
  EdgeList full = GenerateRmat(900, 7000, {.seed = 41, .assign_random_weights = true});
  StreamSplit split = SplitForStreaming(full, 0.5, 42);
  std::vector<MutationBatch> batches = MakeBatches(split, 16, 50, 43);
  const size_t kHandoff = 10;  // "crash" after this many batches

  // Fault-free reference over the whole stream.
  MutableGraph g_ref(split.initial);
  KickStarterEngine<KsSsspTraits> reference(&g_ref, KsSsspTraits(0));
  reference.InitialCompute();
  for (const MutationBatch& batch : batches) {
    reference.ApplyMutations(batch);
  }

  // First "process": streams the prefix, then is dropped without Stop-side
  // cleanup mattering — durability must come from checkpoint + WAL alone.
  {
    MutableGraph graph(split.initial);
    KickStarterEngine<KsSsspTraits> engine(&graph, KsSsspTraits(0));
    engine.InitialCompute();
    Checkpointer<KickStarterEngine<KsSsspTraits>> checkpointer(
        &engine, &graph, {.directory = tmp.path(), .cadence_batches = 4});
    StreamDriver<KickStarterEngine<KsSsspTraits>> driver(
        &engine, {.batch_size = 1u << 20, .flush_interval_seconds = 3600.0, .coalesce = false},
        &checkpointer);
    ASSERT_TRUE(driver.CheckpointNow());
    for (size_t i = 0; i < kHandoff; ++i) {
      ASSERT_EQ(driver.IngestBatch(batches[i]), batches[i].size());
      driver.Flush();
    }
    driver.PrepQuery();
  }

  // Second "process": nothing in memory, everything from disk.
  MutableGraph graph;  // empty — Recover() replaces it wholesale
  KickStarterEngine<KsSsspTraits> engine(&graph, KsSsspTraits(0));
  Checkpointer<KickStarterEngine<KsSsspTraits>> checkpointer(
      &engine, &graph, {.directory = tmp.path(), .cadence_batches = 4});
  StreamDriver<KickStarterEngine<KsSsspTraits>> driver(
      &engine, {.batch_size = 1u << 20, .flush_interval_seconds = 3600.0, .coalesce = false},
      &checkpointer);
  ASSERT_TRUE(driver.Recover());
  EXPECT_GE(driver.stats().recoveries, 1u);

  // The tail (with deletions) must correct off the restored dependence
  // tree exactly as the uninterrupted reference did.
  for (size_t i = kHandoff; i < batches.size(); ++i) {
    ASSERT_EQ(driver.IngestBatch(batches[i]), batches[i].size());
    driver.Flush();
  }
  driver.PrepQuery();
  ASSERT_EQ(engine.values().size(), reference.values().size());
  for (size_t v = 0; v < engine.values().size(); ++v) {
    ASSERT_EQ(engine.values()[v], reference.values()[v]) << "vertex " << v;
    ASSERT_EQ(engine.parents()[v], reference.parents()[v]) << "parent of " << v;
  }
}

// A four-lane run journals into the one global WAL and nothing else: its
// checkpoint directory holds no per-lane `shard-<i>.wal`, and a cold
// Recover() at four lanes or at one reproduces the live state bitwise. A
// stale `shard-0.wal` planted before recovery — records past the checkpoint
// whose mutations the run never saw — must be ignored.
TEST(ColdRecovery, FourLaneRunKeepsOneJournal) {
  TaskArena::SetNumThreads(1);
  ScopedTempDir tmp;
  ScopedTempDir copy;
  EdgeList full = GenerateRmat(1000, 8000, {.seed = 61});
  StreamSplit split = SplitForStreaming(full, 0.5, 62);
  const std::vector<MutationBatch> batches = MakeBatches(split, 10, 60, 63);
  using Engine = GraphBoltEngine<PageRank>;
  // Above the one to four promotions a batch takes at four lanes (how many
  // depends on how the lane workers fuse its slices), so the checkpoint
  // taken before the last batch leaves that batch as a journal tail.
  const uint64_t kCadence = 7;
  auto config_for = [&](const std::string& dir, size_t shards) {
    DriverConfig config;
    config.shards = shards;
    config.batch_size = 1u << 20;
    config.flush_interval_seconds = 3600.0;
    config.coalesce = false;
    config.checkpoint_dir = dir;
    config.checkpoint_every = kCadence;
    return config;
  };

  MutableGraph graph(split.initial);
  Engine engine(&graph, PageRank{});
  engine.InitialCompute();
  uint64_t live_seq = 0;
  {
    Checkpointer<Engine> checkpointer(&engine, &graph,
                                      {.directory = tmp.path(), .cadence_batches = kCadence});
    StreamDriver<Engine> driver(&engine, config_for(tmp.path(), 4), &checkpointer);
    ASSERT_TRUE(driver.CheckpointNow());
    for (const MutationBatch& batch : batches) {
      if (&batch == &batches.back()) {
        ASSERT_TRUE(driver.CheckpointNow());
      }
      ASSERT_EQ(driver.IngestBatch(batch), batch.size());
      driver.PrepQuery();
    }
    live_seq = driver.applied_seq();
  }
  for (const auto& entry : std::filesystem::directory_iterator(tmp.path())) {
    EXPECT_NE(entry.path().filename().string().rfind("shard-", 0), 0u)
        << "per-lane journal left behind: " << entry.path();
  }
  std::filesystem::copy(tmp.path(), copy.path(),
                        std::filesystem::copy_options::recursive);

  for (const auto& [dir, shards] :
       {std::pair{tmp.path(), size_t{4}}, std::pair{copy.path(), size_t{1}}}) {
    SCOPED_TRACE("recovering at " + std::to_string(shards) + " lane(s)");
    {
      WriteAheadLog stale;
      stale.Open(dir + "/shard-0.wal");
      for (uint64_t seq = 1; seq <= live_seq + 4; ++seq) {
        const auto v = static_cast<VertexId>(seq % 1000);
        ASSERT_TRUE(stale.Append(seq, {EdgeMutation::Add(v, (v * 7 + 3) % 1000)}));
      }
    }
    MutableGraph cold_graph;
    Engine cold(&cold_graph, PageRank{});
    Checkpointer<Engine> restorer(&cold, &cold_graph,
                                  {.directory = dir, .cadence_batches = kCadence});
    StreamDriver<Engine> driver(&cold, config_for(dir, shards), &restorer);
    ASSERT_TRUE(driver.Recover());
    EXPECT_GE(driver.stats().batches_replayed, 1u);
    EXPECT_EQ(driver.applied_seq(), live_seq);
    driver.Stop();
    EXPECT_EQ(cold.values(), engine.values());
    EXPECT_EQ(cold_graph.ToEdgeList().edges(), graph.ToEdgeList().edges());
  }
}

// Cold-start Recover with an empty directory must fail cleanly and leave
// the (uninitialized) engine untouched — no checkpoint, no recovery.
TEST(ColdRecovery, EmptyDirectoryFailsCleanly) {
  ScopedTempDir tmp;
  MutableGraph graph;
  GraphBoltEngine<PageRank> engine(&graph, PageRank{});
  Checkpointer<GraphBoltEngine<PageRank>> checkpointer(&engine, &graph,
                                                       {.directory = tmp.path()});
  StreamDriver<GraphBoltEngine<PageRank>> driver(&engine, {}, &checkpointer);
  EXPECT_FALSE(driver.Recover());
  EXPECT_EQ(driver.stats().recoveries, 0u);
  EXPECT_TRUE(driver.healthy());  // pipeline restarted even without state
}

// A second run streaming into the same directory restarts sequence numbers
// at 0. Once it discards the earlier lineage, recovery lands on its own
// state, not on the longer first run's newer checkpoint.
TEST(ColdRecovery, DiscardedLineageIsNotRecovered) {
  TaskArena::SetNumThreads(1);
  ScopedTempDir tmp;
  EdgeList full = GenerateRmat(600, 4000, {.seed = 71});
  StreamSplit split = SplitForStreaming(full, 0.5, 72);
  const std::vector<MutationBatch> batches = MakeBatches(split, 6, 40, 73);
  using Engine = GraphBoltEngine<PageRank>;
  auto run = [&](size_t count, MutableGraph* graph, Engine* engine) {
    engine->InitialCompute();
    Checkpointer<Engine> checkpointer(engine, graph,
                                      {.directory = tmp.path(), .cadence_batches = 2});
    checkpointer.DiscardLineage();
    StreamDriver<Engine> driver(engine, {}, &checkpointer);
    ASSERT_TRUE(driver.CheckpointNow());
    for (size_t i = 0; i < count; ++i) {
      ASSERT_EQ(driver.IngestBatch(batches[i]), batches[i].size());
      driver.PrepQuery();
    }
  };
  MutableGraph long_graph(split.initial);
  Engine long_run(&long_graph, PageRank{});
  run(batches.size(), &long_graph, &long_run);
  MutableGraph short_graph(split.initial);
  Engine short_run(&short_graph, PageRank{});
  run(3, &short_graph, &short_run);

  MutableGraph cold_graph;
  Engine cold(&cold_graph, PageRank{});
  Checkpointer<Engine> restorer(&cold, &cold_graph, {.directory = tmp.path()});
  StreamDriver<Engine> driver(&cold, {}, &restorer);
  ASSERT_TRUE(driver.Recover());
  EXPECT_EQ(driver.applied_seq(), 3u);
  driver.Stop();
  EXPECT_EQ(cold.values(), short_run.values());
}

// kShedToWal: spuriously-full pushes park batches in the durable shed log
// instead of dropping them, and the next query barrier replays them. The
// stream is addition-only, so the re-entry order shed batches get is
// equivalent — ResetEngine recomputes from scratch per batch, making the
// final values bitwise equal to a fresh run on the final graph.
TEST(ShedToWal, SpuriousQueueFullLosesNothing) {
  TaskArena::SetNumThreads(1);
  ScopedTempDir tmp;
  EdgeList full = GenerateRmat(800, 8000, {.seed = 51});
  StreamSplit split = SplitForStreaming(full, 0.5, 52);

  MutableGraph graph(split.initial);
  ResetEngine<PageRank> engine(&graph, PageRank{});
  engine.InitialCompute();
  FaultInjector injector;
  Checkpointer<ResetEngine<PageRank>> checkpointer(
      &engine, &graph, {.directory = tmp.path(), .cadence_batches = 0}, &injector);
  StreamDriver<ResetEngine<PageRank>> driver(
      &engine, {.batch_size = 1u << 20,
                .flush_interval_seconds = 3600.0,
                .overflow = StreamDriver<ResetEngine<PageRank>>::OverflowPolicy::kShedToWal,
                .coalesce = false},
      &checkpointer, &injector);
  injector.ArmOnce(FaultSite::kQueueFull, 2, /*burst=*/3);  // flushes 2..4 shed

  constexpr size_t kBatch = 64;
  MutationBatch batch;
  for (const Edge& e : split.held_back) {
    batch.push_back(EdgeMutation::Add(e.src, e.dst, e.weight));
    if (batch.size() == kBatch) {
      ASSERT_EQ(driver.IngestBatch(batch), batch.size());
      driver.Flush();
      batch.clear();
    }
  }
  if (!batch.empty()) {
    ASSERT_EQ(driver.IngestBatch(batch), batch.size());
    driver.Flush();
  }
  driver.PrepQuery();

  EXPECT_GE(injector.fired(FaultSite::kQueueFull), 3u);
  const EngineStats stats = driver.stats();
  EXPECT_EQ(stats.mutations_dropped, 0u);
  EXPECT_GE(stats.mutations_shed_to_wal, 1u);
  EXPECT_GE(stats.shed_batches_replayed, 3u);
  EXPECT_EQ(stats.mutations_enqueued, split.held_back.size());

  MutableGraph final_graph(full);
  ResetEngine<PageRank> fresh(&final_graph, PageRank{});
  fresh.InitialCompute();
  EXPECT_EQ(graph.num_edges(), final_graph.num_edges());
  ASSERT_EQ(engine.values().size(), fresh.values().size());
  for (size_t v = 0; v < engine.values().size(); ++v) {
    ASSERT_EQ(engine.values()[v], fresh.values()[v]) << "vertex " << v;
  }
}

}  // namespace
}  // namespace graphbolt

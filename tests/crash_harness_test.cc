// Out-of-process crash chaos harness: SIGKILL the durability pipeline at
// seeded, byte-granular points and prove recovery is bitwise exact.
//
// Each kill point forks a child that streams a deterministic mutation
// stream through a checkpointing driver whose storage runs through a
// FaultyEnv armed to raise SIGKILL from *inside* the nth durable write
// (half the payload persisted — a genuinely torn record, the way a power
// cut makes one) or the nth commit rename (before it when odd, after when
// even). The parent reaps the corpse, then points a brand-new
// graph/engine/driver at the directory, calls Recover(), and requires the
// recovered state to equal — by operator==, on doubles and edge lists —
// the state a fault-free run reaches after exactly applied_seq() batches.
// The recovered frontier is whatever it is (that is the kill's business);
// what must hold is that the state IS that frontier, bitwise, with no
// torn artifact ever silently replayed.
//
// Both driver shapes run the same matrix: the unsharded StreamDriver and
// the 4-lane ShardedDriver, which journal into the same one global WAL.
// Batches are lane-aligned (batch i's sources all live on
// shard i % 4) and the sharded child barriers per batch, so the global
// promotion order equals the ingest order and "first n batches" is
// well-defined on both shapes.
//
// The fork is bare (no exec): the child rebuilds all state from scratch
// post-fork and the parent holds no extra live threads at fork time
// (the TaskArena is pinned to 1 thread; each recovery driver is stopped
// before the next fork).
#include <gtest/gtest.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/algorithms/pagerank.h"
#include "src/core/graphbolt_engine.h"
#include "src/driver/stream_driver.h"
#include "src/fault/checkpoint.h"
#include "src/fault/storage_env.h"
#include "src/graph/generators.h"
#include "src/graph/mutable_graph.h"
#include "src/parallel/task_arena.h"
#include "src/shard/driver_config.h"
#include "src/shard/sharded_driver.h"
#include "tests/test_util.h"

namespace graphbolt {
namespace {

using CrashEngine = GraphBoltEngine<PageRank>;

constexpr size_t kVertices = 160;       // multiple of kShards (lane alignment)
constexpr size_t kInitialEdges = 600;
constexpr size_t kBatches = 28;
constexpr size_t kBatchSize = 16;
constexpr size_t kShards = 4;
constexpr uint64_t kCadence = 4;        // checkpoint every 4 batches
constexpr int kSurvivedExit = 42;       // child outlived its kill point

// A kill point: die inside the nth durable write, or at the nth rename.
struct KillSpec {
  bool at_rename = false;
  uint64_t n = 0;
};

// Deterministic lane-aligned batch stream (LCG, no wall clock, no global
// state): batch i's sources are all congruent to i mod kShards, so on the
// sharded driver every batch lands whole on one lane and promotes as one
// global sequence number — the property that makes "the first n batches"
// mean the same thing on both driver shapes.
std::vector<MutationBatch> MakeAlignedBatches(uint64_t seed) {
  uint64_t state = seed;
  auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  std::vector<MutationBatch> batches;
  for (size_t i = 0; i < kBatches; ++i) {
    MutationBatch batch;
    for (size_t m = 0; m < kBatchSize; ++m) {
      const auto src = static_cast<VertexId>(
          (next() % (kVertices / kShards)) * kShards + i % kShards);
      const auto dst = static_cast<VertexId>(next() % kVertices);
      batch.push_back(EdgeMutation::Add(src, dst));
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

typename Checkpointer<CrashEngine>::Options CkptOptions(const std::string& dir,
                                                        StorageEnv* env) {
  return {.directory = dir, .cadence_batches = kCadence, .keep = 2, .env = env};
}

// The child's whole life. Never returns: dies by injected SIGKILL, or
// exits kSurvivedExit if the kill point lay beyond the run's IO.
[[noreturn]] void RunChildWorkload(const std::string& dir, const KillSpec& kill,
                                   size_t shards) {
  TaskArena::SetNumThreads(1);  // deterministic summation order
  EdgeList initial = GenerateRmat(kVertices, kInitialEdges, {.seed = 7});
  MutableGraph graph(initial);
  CrashEngine engine(&graph, PageRank{});
  engine.InitialCompute();
  FaultyEnv faulty(nullptr, /*seed=*/kill.n);
  if (kill.at_rename) {
    faulty.KillAtRename(kill.n);
  } else {
    faulty.KillAtWrite(kill.n);
  }
  Checkpointer<CrashEngine> ckpt(&engine, &graph, CkptOptions(dir, &faulty));
  const std::vector<MutationBatch> batches = MakeAlignedBatches(/*seed=*/99);
  if (shards == 0) {
    StreamDriver<CrashEngine> driver(&engine,
                                     {.batch_size = kBatchSize,
                                      .flush_interval_seconds = 3600.0,
                                      .overflow = OverflowPolicy::kBlock,
                                      .coalesce = false,
                                      .background_compaction = false,
                                      .fast_path = false,
                                      .async_mode = AsyncModePolicy::kOff},
                                     &ckpt);
    driver.CheckpointNow();  // baseline: write 1 / rename 1
    for (const MutationBatch& batch : batches) {
      driver.IngestBatch(batch);  // exactly one gutter flush per call
    }
    driver.Stop();
  } else {
    DriverConfig config;
    config.shards = shards;
    config.batch_size = kBatchSize;
    config.flush_interval_seconds = 3600.0;
    config.overflow = OverflowPolicy::kBlock;
    config.coalesce = false;
    config.background_compaction = false;
    config.fast_path = false;
    config.async_mode = AsyncModePolicy::kOff;
    config.checkpoint_dir = dir;
    config.checkpoint_every = kCadence;
    ShardedDriver<CrashEngine> driver(&engine, config, &ckpt);
    driver.CheckpointNow();
    for (const MutationBatch& batch : batches) {
      driver.IngestBatch(batch);
      driver.PrepQuery();  // barrier: promotion order == ingest order
    }
    driver.Stop();
  }
  _exit(kSurvivedExit);
}

// Fault-free reference: engine value vector and edge list after every
// batch prefix (index n = first n batches applied).
struct Prefixes {
  std::vector<std::vector<double>> values;
  std::vector<std::vector<Edge>> edges;
};

Prefixes ComputePrefixes() {
  Prefixes ref;
  EdgeList initial = GenerateRmat(kVertices, kInitialEdges, {.seed = 7});
  MutableGraph graph(initial);
  CrashEngine engine(&graph, PageRank{});
  engine.InitialCompute();
  ref.values.push_back(engine.values());
  ref.edges.push_back(graph.ToEdgeList().edges());
  for (const MutationBatch& batch : MakeAlignedBatches(/*seed=*/99)) {
    engine.ApplyMutations(batch);
    ref.values.push_back(engine.values());
    ref.edges.push_back(graph.ToEdgeList().edges());
  }
  return ref;
}

// Forks the child workload and reaps it. The child must die by SIGKILL —
// a kSurvivedExit exit means the kill point was miscalibrated and the
// matrix entry is vacuous.
void SpawnChildExpectKilled(const std::string& dir, const KillSpec& kill,
                            size_t shards) {
  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    RunChildWorkload(dir, kill, shards);  // never returns
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status))
      << "child survived its kill point (" << (kill.at_rename ? "rename" : "write")
      << " #" << kill.n << ", exit "
      << (WIFEXITED(status) ? WEXITSTATUS(status) : -1) << ")";
  ASSERT_EQ(WTERMSIG(status), SIGKILL);
}

// Cold-start recovery in the parent against the child's corpse directory,
// plus the bitwise prefix assertion.
void RecoverAndCheck(const std::string& dir, size_t shards, const Prefixes& ref,
                     const std::string& what) {
  MutableGraph graph;
  CrashEngine engine(&graph, PageRank{});
  Checkpointer<CrashEngine> ckpt(&engine, &graph, CkptOptions(dir, nullptr));
  uint64_t applied = 0;
  if (shards == 0) {
    StreamDriver<CrashEngine> driver(&engine,
                                     {.batch_size = kBatchSize,
                                      .flush_interval_seconds = 3600.0,
                                      .overflow = OverflowPolicy::kBlock,
                                      .coalesce = false,
                                      .background_compaction = false,
                                      .fast_path = false,
                                      .async_mode = AsyncModePolicy::kOff},
                                     &ckpt);
    EXPECT_TRUE(driver.Recover()) << what;
    applied = driver.applied_seq();
    driver.Stop();
  } else {
    DriverConfig config;
    config.shards = shards;
    config.batch_size = kBatchSize;
    config.flush_interval_seconds = 3600.0;
    config.overflow = OverflowPolicy::kBlock;
    config.coalesce = false;
    config.background_compaction = false;
    config.fast_path = false;
    config.async_mode = AsyncModePolicy::kOff;
    config.checkpoint_dir = dir;
    config.checkpoint_every = kCadence;
    ShardedDriver<CrashEngine> driver(&engine, config, &ckpt);
    EXPECT_TRUE(driver.Recover()) << what;
    applied = driver.applied_seq();
    driver.Stop();
  }
  // Recovery's own post-restore checkpoint re-journals nothing, so the
  // frontier is exactly a batch count into the reference stream.
  EXPECT_LE(applied, kBatches) << what;
  const size_t n = static_cast<size_t>(std::min<uint64_t>(applied, kBatches));
  EXPECT_EQ(engine.values(), ref.values[n]) << what << " (values diverge at prefix " << n << ")";
  EXPECT_EQ(graph.ToEdgeList().edges(), ref.edges[n])
      << what << " (graph diverges at prefix " << n << ")";
}

// The seeded kill matrix for one driver shape: 10 write kills drawn
// without replacement from the run's durable-write range, plus 3 rename
// kills covering both pre-commit (odd) and post-commit (even) deaths.
// Write/rename #1 is the baseline checkpoint and is excluded so every
// entry has a restorable artifact (the no-baseline case is
// fault_recovery_test's cold-start-without-checkpoint territory).
std::vector<KillSpec> MakeKillMatrix(uint64_t seed) {
  std::vector<uint64_t> candidates;
  for (uint64_t n = 2; n <= 30; ++n) {
    candidates.push_back(n);
  }
  std::mt19937_64 rng(seed);
  std::shuffle(candidates.begin(), candidates.end(), rng);
  std::vector<KillSpec> matrix;
  for (size_t i = 0; i < 10; ++i) {
    matrix.push_back({/*at_rename=*/false, candidates[i]});
  }
  for (uint64_t n : {2u, 3u, 4u}) {
    matrix.push_back({/*at_rename=*/true, n});
  }
  return matrix;
}

void RunKillMatrix(size_t shards, uint64_t seed) {
  TaskArena::SetNumThreads(1);
  const Prefixes ref = ComputePrefixes();
  for (const KillSpec& kill : MakeKillMatrix(seed)) {
    ScopedTempDir tmp("graphbolt_crash");
    const std::string what =
        std::string(shards == 0 ? "unsharded" : "sharded") + " kill at " +
        (kill.at_rename ? "rename" : "write") + " #" + std::to_string(kill.n);
    SCOPED_TRACE(what);
    SpawnChildExpectKilled(tmp.path(), kill, shards);
    if (testing::Test::HasFatalFailure()) {
      return;
    }
    RecoverAndCheck(tmp.path(), shards, ref, what);
  }
}

TEST(CrashHarness, StreamDriverSurvivesSigkillMatrix) {
  RunKillMatrix(/*shards=*/0, /*seed=*/0xC0FFEE);
}

TEST(CrashHarness, ShardedDriverSurvivesSigkillMatrix) {
  RunKillMatrix(/*shards=*/kShards, /*seed=*/0xBADD1E);
}

}  // namespace
}  // namespace graphbolt

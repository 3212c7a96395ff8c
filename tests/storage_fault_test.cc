// Storage-fault tier: drive the injectable StorageEnv through the whole
// durability stack and prove every fault is *detected* — never silently
// replayed, never silently restored — and that the runtime degrades the
// way the design doc promises: ENOSPC is fatal-fast (no retry burn, last
// good checkpoint stays restorable, serving continues), torn WAL tails
// truncate at the last intact record boundary, read-side bit flips fail
// the checksum, v1 artifacts still load, and Scrub quarantines exactly
// what recovery would reject.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/algorithms/pagerank.h"
#include "src/core/graphbolt_engine.h"
#include "src/driver/stream_driver.h"
#include "src/fault/checkpoint.h"
#include "src/fault/storage_env.h"
#include "src/fault/wal.h"
#include "src/graph/generators.h"
#include "src/graph/mutable_graph.h"
#include "src/parallel/task_arena.h"
#include "tests/test_util.h"

namespace graphbolt {
namespace {

using Engine = GraphBoltEngine<PageRank>;

MutationBatch OneAdd(VertexId src, VertexId dst) {
  MutationBatch batch;
  batch.push_back(EdgeMutation::Add(src, dst));
  return batch;
}

// An edge the graph does not have yet (adding a duplicate is a no-op, which
// would make "the engine moved on" assertions vacuous).
MutationBatch OneFreshAdd(const MutableGraph& graph) {
  for (VertexId src = graph.num_vertices(); src-- > 0;) {
    for (VertexId dst = graph.num_vertices(); dst-- > 0;) {
      if (src != dst && !graph.HasEdge(src, dst)) {
        return OneAdd(src, dst);
      }
    }
  }
  ADD_FAILURE() << "graph is complete; no fresh edge to add";
  return OneAdd(0, 1);
}

// --------------------------------------------------------------------------
// FaultyEnv contract
// --------------------------------------------------------------------------

TEST(FaultyEnvTest, FailWriteAtIsOneShotAndCounted) {
  ScopedTempDir tmp("gb_storage_fault");
  FaultyEnv env;
  env.FailWriteAt(1, StorageStatus::Code::kEio);
  WriteAheadLog wal;
  wal.Open(tmp.File("one.wal"), &env);
  EXPECT_FALSE(wal.Append(1, OneAdd(0, 1)));
  EXPECT_EQ(wal.last_status().code, StorageStatus::Code::kEio);
  EXPECT_EQ(env.faults_fired(), 1u);
  // One-shot: the retry goes through and the log is whole again.
  EXPECT_TRUE(wal.Append(1, OneAdd(0, 1)));
  WalScanInfo info = wal.Verify();
  EXPECT_TRUE(info.clean());
  EXPECT_EQ(info.records_total, 1u);
}

TEST(FaultyEnvTest, ShortWritePersistsExactlyTheFraction) {
  ScopedTempDir tmp("gb_storage_fault");
  FaultyEnv env;
  WriteAheadLog wal;
  wal.Open(tmp.File("short.wal"), &env);
  ASSERT_TRUE(wal.Append(1, OneAdd(0, 1)));
  const int64_t whole = env.FileSize(tmp.File("short.wal"));
  ASSERT_GT(whole, 0);
  // Half of record 2 reaches the platter; the append still reports failure.
  env.FailWriteAt(2, StorageStatus::Code::kEio, /*persist_fraction=*/0.5);
  EXPECT_FALSE(wal.Append(2, OneAdd(1, 2)));
  const int64_t torn = env.FileSize(tmp.File("short.wal"));
  EXPECT_GT(torn, whole);       // some bytes of the doomed record landed
  EXPECT_LT(torn, 2 * whole);   // but not all of them
  // Replay tolerates the torn tail: record 1 intact, nothing invented.
  WalScanInfo info = wal.Verify();
  EXPECT_EQ(info.records_total, 1u);
  EXPECT_TRUE(info.torn_tail);
  EXPECT_FALSE(info.corrupt);
}

TEST(FaultyEnvTest, ReadCorruptionFliesExactlyOneBit) {
  ScopedTempDir tmp("gb_storage_fault");
  FaultyEnv env;
  WriteAheadLog wal;
  wal.Open(tmp.File("flip.wal"), &env);
  ASSERT_TRUE(wal.Append(1, OneAdd(3, 4)));
  env.CorruptReadAt("flip.wal", /*offset=*/30, /*xor_mask=*/0x01);
  WalScanInfo info = wal.Verify();
  EXPECT_TRUE(info.corrupt);
  EXPECT_EQ(info.records_total, 0u);
  EXPECT_GE(env.faults_fired(), 1u);
  env.ClearFaults();
  EXPECT_TRUE(wal.Verify().clean());  // the disk itself was never touched
}

// --------------------------------------------------------------------------
// WAL: torn tails, bit flips, v1 read-compat
// --------------------------------------------------------------------------

TEST(WalFaultTest, TornTailTruncatesAtRecordBoundaryAndHeals) {
  ScopedTempDir tmp("gb_storage_fault");
  FaultyEnv env;
  const std::string path = tmp.File("torn.wal");
  WriteAheadLog wal;
  wal.Open(path, &env);
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    ASSERT_TRUE(wal.Append(seq, OneAdd(seq, seq + 1)));
  }
  // Record 6 dies mid-write (40% of its bytes persist).
  env.FailWriteAt(6, StorageStatus::Code::kEio, /*persist_fraction=*/0.4);
  EXPECT_FALSE(wal.Append(6, OneAdd(6, 7)));
  env.ClearFaults();

  std::vector<uint64_t> seqs;
  WalScanInfo info;
  wal.Replay(0, [&](uint64_t seq, MutationBatch&&) { seqs.push_back(seq); },
             static_cast<size_t>(-1), &info);
  EXPECT_EQ(seqs, (std::vector<uint64_t>{1, 2, 3, 4, 5}));
  EXPECT_TRUE(info.torn_tail);
  EXPECT_LT(info.valid_bytes, info.file_bytes);

  // Heal truncates exactly to the boundary; appends continue cleanly.
  EXPECT_TRUE(wal.Heal());
  EXPECT_EQ(static_cast<uint64_t>(env.FileSize(path)), info.valid_bytes);
  EXPECT_TRUE(wal.Verify().clean());
  ASSERT_TRUE(wal.Append(6, OneAdd(6, 7)));
  WalScanInfo after = wal.Verify();
  EXPECT_TRUE(after.clean());
  EXPECT_EQ(after.records_total, 6u);
  EXPECT_FALSE(wal.Heal());  // nothing left to cut
}

TEST(WalFaultTest, BitFlipOnDiskNeverDeliversTheBadRecord) {
  ScopedTempDir tmp("gb_storage_fault");
  const std::string path = tmp.File("flip2.wal");
  WriteAheadLog wal;
  wal.Open(path, nullptr);
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    ASSERT_TRUE(wal.Append(seq, OneAdd(seq, seq + 1)));
  }
  const int64_t file_bytes = StorageEnv::Default()->FileSize(path);
  ASSERT_GT(file_bytes, 0);
  const uint64_t record_bytes = static_cast<uint64_t>(file_bytes) / 5;
  // Flip one payload bit inside record 3.
  ASSERT_TRUE(FaultyEnv::FlipByteOnDisk(path, 2 * record_bytes + record_bytes / 2, 0x40));

  std::vector<uint64_t> seqs;
  WalScanInfo info;
  wal.Replay(0, [&](uint64_t seq, MutationBatch&&) { seqs.push_back(seq); },
             static_cast<size_t>(-1), &info);
  // The checksum stops replay at the last verified boundary: records 1-2
  // arrive, the flipped record and everything after it never do.
  EXPECT_EQ(seqs, (std::vector<uint64_t>{1, 2}));
  EXPECT_TRUE(info.corrupt);
  EXPECT_EQ(info.valid_bytes, 2 * record_bytes);

  // Heal cuts the file back to the intact prefix so the lineage lives on.
  EXPECT_TRUE(wal.Heal());
  EXPECT_EQ(static_cast<uint64_t>(StorageEnv::Default()->FileSize(path)),
            2 * record_bytes);
  ASSERT_TRUE(wal.Append(3, OneAdd(30, 31)));
  EXPECT_TRUE(wal.Verify().clean());
}

TEST(WalFaultTest, V1RecordsStillReplayAndUpgradeOnCompaction) {
  ScopedTempDir tmp("gb_storage_fault");
  const std::string path = tmp.File("v1.wal");
  // Hand-craft two v1 records: u32 "GBWA" | u64 seq | u64 count | payload.
  {
    auto file = StorageEnv::Default()->NewWritableFile(path, /*truncate=*/true);
    ASSERT_NE(file, nullptr);
    auto put = [&](const void* p, size_t n) {
      ASSERT_TRUE(file->Write(p, n).ok());
    };
    for (uint64_t seq = 1; seq <= 2; ++seq) {
      const uint32_t magic = WriteAheadLog::kRecordMagic;
      const uint64_t count = 1;
      const EdgeMutation m = EdgeMutation::Add(seq * 10, seq * 10 + 1);
      put(&magic, sizeof(magic));
      put(&seq, sizeof(seq));
      put(&count, sizeof(count));
      put(&m, sizeof(m));
    }
    file->Close();
  }
  WriteAheadLog wal;
  wal.Open(path, nullptr);
  WalScanInfo info = wal.Verify();
  EXPECT_TRUE(info.clean());
  EXPECT_EQ(info.records_total, 2u);
  // Mixed lineage: a v2 append lands after the v1 prefix.
  ASSERT_TRUE(wal.Append(3, OneAdd(30, 31)));
  std::vector<uint64_t> seqs;
  wal.Replay(0, [&](uint64_t seq, MutationBatch&& batch) {
    seqs.push_back(seq);
    ASSERT_EQ(batch.size(), 1u);
  });
  EXPECT_EQ(seqs, (std::vector<uint64_t>{1, 2, 3}));
  // Compaction rewrites survivors as v2 — one DropThrough upgrades the log.
  ASSERT_TRUE(wal.DropThrough(1));
  std::string bytes;
  ASSERT_TRUE(StorageEnv::Default()->ReadFile(path, &bytes).ok());
  uint32_t first_magic = 0;
  std::memcpy(&first_magic, bytes.data(), sizeof(first_magic));
  EXPECT_EQ(first_magic, WriteAheadLog::kRecordMagicV2);
  EXPECT_EQ(wal.Verify().records_total, 2u);  // seqs 2 and 3 survive
}

// --------------------------------------------------------------------------
// Checkpointer: ENOSPC fatal-fast, scrub, read-side corruption
// --------------------------------------------------------------------------

// A small live pipeline: engine + graph + checkpointer over a FaultyEnv.
struct Rig {
  explicit Rig(const std::string& dir, StorageEnv* env,
               uint64_t cadence = 0) {
    TaskArena::SetNumThreads(1);
    EdgeList initial = GenerateRmat(64, 200, {.seed = 11});
    graph = std::make_unique<MutableGraph>(initial);
    engine = std::make_unique<Engine>(graph.get(), PageRank{});
    engine->InitialCompute();
    ckpt = std::make_unique<Checkpointer<Engine>>(
        engine.get(), graph.get(),
        typename Checkpointer<Engine>::Options{
            .directory = dir, .cadence_batches = cadence, .keep = 2, .env = env});
  }
  std::unique_ptr<MutableGraph> graph;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<Checkpointer<Engine>> ckpt;
};

TEST(CheckpointFaultTest, EnospcOnWalIsFatalFastNotRetried) {
  ScopedTempDir tmp("gb_storage_fault");
  FaultyEnv env;
  Rig rig(tmp.path(), &env);
  ASSERT_TRUE(rig.ckpt->AppendWal(1, OneAdd(0, 1)));
  const uint64_t writes_before = env.writes_seen();
  // A full disk: every write from here on is ENOSPC.
  env.FailWritesFrom(writes_before + 1, StorageStatus::Code::kEnospc);
  EXPECT_FALSE(rig.ckpt->AppendWal(2, OneAdd(1, 2)));
  // Fatal-fast: exactly one write attempt, no backoff burn against a
  // condition that cannot clear itself.
  EXPECT_EQ(env.writes_seen(), writes_before + 1);
  EngineStats stats;
  rig.ckpt->MergeStats(&stats);
  EXPECT_GE(stats.enospc_aborts, 1u);
  // The disk recovers; so does the lineage.
  env.ClearFaults();
  EXPECT_TRUE(rig.ckpt->AppendWal(2, OneAdd(1, 2)));
}

TEST(CheckpointFaultTest, EnospcDuringCheckpointKeepsLastGoodRestorable) {
  ScopedTempDir tmp("gb_storage_fault");
  FaultyEnv env;
  std::vector<double> frozen;
  {
    Rig rig(tmp.path(), &env);
    ASSERT_TRUE(rig.ckpt->WriteCheckpoint(1));
    frozen = rig.engine->values();
    // The graph moves on, then the disk fills mid-checkpoint.
    rig.engine->ApplyMutations(OneFreshAdd(*rig.graph));
    env.FailWritesFrom(env.writes_seen() + 1, StorageStatus::Code::kEnospc);
    EXPECT_FALSE(rig.ckpt->WriteCheckpoint(2));
    EngineStats stats;
    rig.ckpt->MergeStats(&stats);
    EXPECT_GE(stats.enospc_aborts, 1u);
    // Degraded serving: the engine still answers from live state.
    EXPECT_NE(rig.engine->values(), frozen);
    env.ClearFaults();
  }
  // Cold restart: the aborted checkpoint must not have clobbered seq 1.
  Rig fresh(tmp.path(), &env);
  uint64_t seq = 0;
  ASSERT_TRUE(fresh.ckpt->RestoreLatest(&seq));
  EXPECT_EQ(seq, 1u);
  EXPECT_EQ(fresh.engine->values(), frozen);
}

TEST(CheckpointFaultTest, ScrubQuarantinesExactlyWhatRestoreWouldReject) {
  ScopedTempDir tmp("gb_storage_fault");
  FaultyEnv env;
  Rig rig(tmp.path(), &env);
  std::vector<double> first = rig.engine->values();
  ASSERT_TRUE(rig.ckpt->WriteCheckpoint(1));
  rig.engine->ApplyMutations(OneFreshAdd(*rig.graph));
  ASSERT_TRUE(rig.ckpt->WriteCheckpoint(2));

  // Flip one byte in the newest checkpoint's payload, on disk.
  const std::string newest =
      tmp.path() + "/checkpoint-00000000000000000002.ckpt";
  ASSERT_GT(StorageEnv::Default()->FileSize(newest), 0);
  ASSERT_TRUE(FaultyEnv::FlipByteOnDisk(newest, /*offset=*/64, 0x10));

  ScrubResult result = rig.ckpt->Scrub();
  EXPECT_EQ(result.corruptions, 1u);
  EXPECT_EQ(result.quarantined, 1u);
  // The corpse is demoted, not deleted — it's forensic evidence.
  EXPECT_LT(StorageEnv::Default()->FileSize(newest), 0);
  EXPECT_GT(StorageEnv::Default()->FileSize(newest + ".quarantined"), 0);
  // A second pass finds a clean chain.
  ScrubResult again = rig.ckpt->Scrub();
  EXPECT_EQ(again.corruptions, 0u);

  // And restore lands on the surviving older checkpoint.
  Rig fresh(tmp.path(), &env);
  uint64_t seq = 0;
  ASSERT_TRUE(fresh.ckpt->RestoreLatest(&seq));
  EXPECT_EQ(seq, 1u);
  EXPECT_EQ(fresh.engine->values(), first);
}

TEST(CheckpointFaultTest, ReadSideCorruptionFallsDownTheKeepChain) {
  ScopedTempDir tmp("gb_storage_fault");
  FaultyEnv env;
  std::vector<double> first;
  {
    Rig rig(tmp.path(), &env);
    first = rig.engine->values();
    ASSERT_TRUE(rig.ckpt->WriteCheckpoint(1));
    rig.engine->ApplyMutations(OneFreshAdd(*rig.graph));
    ASSERT_TRUE(rig.ckpt->WriteCheckpoint(2));
  }
  // The newest checkpoint reads back with a flipped byte every time (bad
  // sector). Restore must detect it on the raw bytes and fall back.
  env.CorruptReadAt("checkpoint-00000000000000000002", /*offset=*/100, 0x08);
  Rig fresh(tmp.path(), &env);
  uint64_t seq = 0;
  ASSERT_TRUE(fresh.ckpt->RestoreLatest(&seq));
  EXPECT_EQ(seq, 1u);
  EXPECT_EQ(fresh.engine->values(), first);
  EXPECT_GE(env.faults_fired(), 1u);
}

// --------------------------------------------------------------------------
// Driver-level: a full disk degrades durability, never liveness
// --------------------------------------------------------------------------

TEST(DriverFaultTest, FullDiskKeepsServingAndRecoversWhenSpaceReturns) {
  ScopedTempDir tmp("gb_storage_fault");
  FaultyEnv env;
  Rig rig(tmp.path(), &env, /*cadence=*/2);
  StreamDriver<Engine> driver(rig.engine.get(),
                              {.batch_size = 4,
                               .flush_interval_seconds = 3600.0,
                               .overflow = OverflowPolicy::kBlock,
                               .coalesce = false,
                               .background_compaction = false,
                               .fast_path = false,
                               .async_mode = AsyncModePolicy::kOff},
                              rig.ckpt.get());
  ASSERT_TRUE(driver.CheckpointNow());
  const std::vector<double> at_baseline = rig.engine->values();

  // Disk full: journaling and checkpoints fail from here.
  env.FailWritesFrom(env.writes_seen() + 1, StorageStatus::Code::kEnospc);
  // 3 batches of 4 distinct fresh edges (fresh against the live graph AND
  // each other, so every one of them moves the engine).
  std::set<std::pair<VertexId, VertexId>> staged;
  const auto next_fresh = [&]() {
    for (VertexId src = rig.graph->num_vertices(); src-- > 0;) {
      for (VertexId dst = rig.graph->num_vertices(); dst-- > 0;) {
        if (src != dst && !rig.graph->HasEdge(src, dst) &&
            staged.insert({src, dst}).second) {
          return EdgeMutation::Add(src, dst);
        }
      }
    }
    ADD_FAILURE() << "graph is complete";
    return EdgeMutation::Add(0, 1);
  };
  // All batches are drawn before the first is ingested: the lane worker
  // applies each one as it flushes, so reading the graph in between races.
  std::vector<MutationBatch> batches(3);
  for (MutationBatch& batch : batches) {
    for (int m = 0; m < 4; ++m) {
      batch.push_back(next_fresh());
    }
  }
  for (const MutationBatch& batch : batches) {
    driver.IngestBatch(batch);
  }
  driver.PrepQuery();  // barrier: everything ingested above is applied
  // Liveness: the engine kept applying even though durability was refused.
  EXPECT_NE(rig.engine->values(), at_baseline);
  EngineStats stats = driver.stats();
  EXPECT_GE(stats.enospc_aborts, 1u);

  // Space returns; an explicit checkpoint re-establishes durability.
  env.ClearFaults();
  EXPECT_TRUE(driver.CheckpointNow());
  driver.Stop();

  Rig fresh(tmp.path(), &env);
  uint64_t seq = 0;
  ASSERT_TRUE(fresh.ckpt->RestoreLatest(&seq));
  EXPECT_EQ(fresh.engine->values(), rig.engine->values());
}

}  // namespace
}  // namespace graphbolt

// Sharded sentinel tier: the PR-5 hardening features (stall watchdog,
// kShedToWal / kShedOldest overflow, kDegrade stale reads) running on the
// multi-lane ShardedDriver, which used to be rejected by
// DriverConfig::Validate for shards > 1.
//
// Conventions follow sentinel_test.cc: one pool thread, pre-generated
// streams, deterministic fault injection, and bitwise (==) comparison.
// Policies that reorder batches (shed replay, recovery) use addition-only
// distinct-edge streams against ResetEngine, whose fixpoint depends only on
// the final graph, so equality stays exact under reordering. The
// stall-under-watchdog differential instead records the admitted stream
// through the apply observer and replays it through the *unsharded*
// StreamDriver — the acceptance criterion for lifting the restrictions.
//
// Compiled with GRAPHBOLT_FAULT_INJECTION=1 so kStageStall is a live hook.
// Runs under `ctest -L fault` / `-L concurrency`; the concurrent flood
// differential is seed-swept (`-L fuzz`).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/algorithms/pagerank.h"
#include "src/core/graphbolt_engine.h"
#include "src/driver/stream_driver.h"
#include "src/engine/reset_engine.h"
#include "src/fault/checkpoint.h"
#include "src/fault/fault_injector.h"
#include "src/graph/generators.h"
#include "src/graph/mutable_graph.h"
#include "src/parallel/task_arena.h"
#include "src/sentinel/watchdog.h"
#include "src/shard/driver_config.h"
#include "src/shard/sharded_driver.h"
#include "src/stream/update_stream.h"
#include "src/util/timer.h"
#include "tests/test_util.h"

namespace graphbolt {
namespace {

constexpr auto kTick = std::chrono::milliseconds(10);

// Pre-generates `count` batches against an evolving shadow graph (same
// helper as sentinel_test.cc / fault_recovery_test.cc).
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

// Chops the held-back additions into distinct-edge, addition-only batches;
// the final graph is then independent of batch boundaries and apply order.
std::vector<MutationBatch> AdditionChunks(const std::vector<Edge>& edges, size_t chunk) {
  std::vector<MutationBatch> out;
  for (size_t i = 0; i < edges.size(); i += chunk) {
    MutationBatch batch;
    for (size_t j = i; j < std::min(i + chunk, edges.size()); ++j) {
      batch.push_back(EdgeMutation::Add(edges[j].src, edges[j].dst, edges[j].weight));
    }
    out.push_back(std::move(batch));
  }
  return out;
}

// The edges lane 0 owns under `shards` lanes (src % shards == 0), or the
// complement. Routing a flood at exactly one lane makes the overflow state
// of that lane's capacity-1 queue fully deterministic while its worker is
// parked, no matter how many sibling lanes run beside it.
std::vector<Edge> EdgesForLaneZero(const std::vector<Edge>& edges, size_t shards,
                                   bool want_lane_zero) {
  std::vector<Edge> out;
  for (const Edge& e : edges) {
    if ((static_cast<size_t>(e.src) % shards == 0) == want_lane_zero) {
      out.push_back(e);
    }
  }
  return out;
}

template <typename Driver>
bool AwaitHealthy(Driver& driver, int max_ticks = 500) {
  for (int i = 0; i < max_ticks; ++i) {
    if (driver.healthy()) {
      return true;
    }
    std::this_thread::sleep_for(kTick);
  }
  return false;
}

// Barrier that tolerates a stall landing mid-wait: retry until a barrier
// completes on a healthy driver (never calls Recover — that is the
// watchdog's job in these tests).
template <typename Driver>
bool BarrierOnHealthy(Driver& driver, int max_ticks = 500) {
  for (int i = 0; i < max_ticks; ++i) {
    if (driver.healthy()) {
      driver.PrepQuery();
      if (driver.healthy()) {
        return true;
      }
    }
    std::this_thread::sleep_for(kTick);
  }
  return false;
}

template <typename GotValues, typename WantValues>
void ExpectBitwiseEqual(const GotValues& got, const WantValues& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t v = 0; v < got.size(); ++v) {
    ASSERT_EQ(got[v], want[v]) << "vertex " << v;
  }
}

// From-scratch reference: a fresh ResetEngine over the final graph.
template <typename Values>
void ExpectMatchesFromScratch(const Values& got, MutableGraph* final_graph) {
  ResetEngine<PageRank> fresh(final_graph, PageRank{});
  fresh.InitialCompute();
  ExpectBitwiseEqual(got, fresh.values());
}

// ----- Lane-stall isolation: one stalled lane never blocks siblings ----------

// Watchdog auto-recovery OFF: the only recovery available is lane-local
// (the watchdog's verdict releases the stalled lane's cancellation token;
// the lane sheds its in-hand batch durably and resumes). While lane 0 is
// parked inside its apply, sibling lanes must keep promoting — and after
// the lane heals itself, the next barrier replays the shed batch so
// nothing is lost.
TEST(ShardedWatchdog, LaneStallIsolationShedsAndResumes) {
  TaskArena::SetNumThreads(1);
  ScopedTempDir ckpt_dir;
  const EdgeList full = GenerateRmat(600, 5000, {.seed = 111});
  const StreamSplit split = SplitForStreaming(full, 0.5, 112);
  const std::vector<Edge> lane0 = EdgesForLaneZero(split.held_back, 4, true);
  const std::vector<Edge> rest = EdgesForLaneZero(split.held_back, 4, false);
  ASSERT_GT(lane0.size(), 3u);
  ASSERT_GT(rest.size(), 4u);
  const std::vector<MutationBatch> lane0_chunks =
      AdditionChunks(lane0, (lane0.size() + 2) / 3);
  ASSERT_EQ(lane0_chunks.size(), 3u);
  const std::vector<MutationBatch> rest_chunks =
      AdditionChunks(rest, (rest.size() + 3) / 4);
  ASSERT_EQ(rest_chunks.size(), 4u);

  MutableGraph graph(split.initial);
  ResetEngine<PageRank> engine(&graph, PageRank{});
  engine.InitialCompute();
  FaultInjector injector(/*seed=*/0x150);
  Checkpointer<ResetEngine<PageRank>> checkpointer(
      &engine, &graph, {.directory = ckpt_dir.path(), .cadence_batches = 0}, &injector);
  DriverConfig config;
  config.shards = 4;
  config.batch_size = 1u << 20;
  config.flush_interval_seconds = 3600.0;
  config.max_pending_batches = 4;
  config.overflow = OverflowPolicy::kShedToWal;
  config.coalesce = false;
  config.checkpoint_dir = ckpt_dir.path();
  config.watchdog_stall_seconds = 1.5;
  config.watchdog_auto_recover = false;  // lane-local recovery only
  ShardedDriver<ResetEngine<PageRank>> driver(&engine, config, &checkpointer, &injector);

  injector.ArmOnce(FaultSite::kStageStall, 1);
  ASSERT_EQ(driver.IngestBatch(lane0_chunks[0]), lane0_chunks[0].size());
  driver.Flush();
  for (int i = 0; i < 500 && injector.fired(FaultSite::kStageStall) == 0; ++i) {
    std::this_thread::sleep_for(kTick);
  }
  ASSERT_GE(injector.fired(FaultSite::kStageStall), 1u);  // lane 0 parked

  // Siblings promote while lane 0 holds its batch: the stall verdict has
  // not landed yet (stalls_detected == 0 is re-checked below), and the
  // sibling applies complete orders of magnitude inside the 1.5 s timeout.
  for (const MutationBatch& chunk : rest_chunks) {
    ASSERT_EQ(driver.IngestBatch(chunk), chunk.size());
    driver.Flush();
  }
  bool siblings_progressed = false;
  for (int i = 0; i < 500 && !siblings_progressed; ++i) {
    siblings_progressed = driver.stats().batches_applied >= rest_chunks.size();
    if (!siblings_progressed) {
      std::this_thread::sleep_for(kTick);
    }
  }
  EXPECT_TRUE(siblings_progressed) << "stalled lane 0 blocked its siblings";
  EXPECT_EQ(driver.stats().stalls_detected, 0u)
      << "sibling progress was only observed after the watchdog verdict";
  EXPECT_EQ(driver.stats().mutations_shed_to_wal, 0u);  // lane 0 still in-hand

  // The watchdog declares the stall; lane-local recovery sheds the in-hand
  // batch durably and the lane resumes — no global Recover() involved.
  for (int i = 0; i < 500 && driver.stats().mutations_shed_to_wal == 0; ++i) {
    std::this_thread::sleep_for(kTick);
  }
  ASSERT_TRUE(AwaitHealthy(driver));
  {
    const EngineStats stats = driver.stats();
    EXPECT_GE(stats.stalls_detected, 1u);
    EXPECT_GT(stats.mutations_shed_to_wal, 0u);
    EXPECT_EQ(stats.watchdog_recoveries, 0u);
    EXPECT_EQ(stats.recoveries, 0u);
  }

  // The revived lane keeps working, and the barrier's replay phase folds
  // the shed batch back in.
  ASSERT_EQ(driver.IngestBatch(lane0_chunks[1]), lane0_chunks[1].size());
  ASSERT_EQ(driver.IngestBatch(lane0_chunks[2]), lane0_chunks[2].size());
  driver.Flush();
  driver.PrepQuery();
  const EngineStats stats = driver.stats();
  EXPECT_TRUE(driver.healthy());
  EXPECT_EQ(stats.mutations_dropped, 0u);
  EXPECT_GE(stats.shed_batches_replayed, 1u);

  MutableGraph final_graph(full);
  ExpectMatchesFromScratch(driver.QuerySnapshot(), &final_graph);
}

// ----- The acceptance differential: 4 shards vs the unsharded driver ---------

// Watchdog auto-recovery + kShedToWal + an injected lane stall, on a
// GraphBoltEngine (incremental, order-sensitive). The apply observer
// records the admitted stream in global promotion order — including the
// shed-replay barrier and recovery's first-time promotions — and replaying
// that exact stream through the unsharded StreamDriver must reproduce the
// sharded engine state bitwise.
TEST(ShardedWatchdog, InjectedStallBitwiseEqualToUnshardedDriver) {
  TaskArena::SetNumThreads(1);
  ScopedTempDir ckpt_dir;
  const EdgeList full = GenerateRmat(800, 6000, {.seed = 201});
  const StreamSplit split = SplitForStreaming(full, 0.5, 202);
  const std::vector<MutationBatch> batches = MakeBatches(split, 12, 100, 203);

  MutableGraph graph(split.initial);
  GraphBoltEngine<PageRank> engine(&graph, PageRank{});
  MutableGraph ref_graph(split.initial);
  GraphBoltEngine<PageRank> reference(&ref_graph, PageRank{});
  engine.InitialCompute();
  reference.InitialCompute();

  std::vector<MutationBatch> admitted;  // global apply order
  {
    FaultInjector injector(/*seed=*/0x4a1);
    Checkpointer<GraphBoltEngine<PageRank>> checkpointer(
        &engine, &graph, {.directory = ckpt_dir.path(), .cadence_batches = 3}, &injector);
    DriverConfig config;
    config.shards = 4;
    config.batch_size = 1u << 20;
    config.flush_interval_seconds = 3600.0;
    config.max_pending_batches = 4;
    config.overflow = OverflowPolicy::kShedToWal;
    config.coalesce = false;
    config.checkpoint_dir = ckpt_dir.path();
    config.watchdog_stall_seconds = 0.3;
    ShardedDriver<GraphBoltEngine<PageRank>> driver(&engine, config, &checkpointer, &injector);
    // Runs under the engine mutex, so the recording needs no extra lock.
    driver.set_apply_observer(
        [&](size_t, const MutationBatch& batch) { admitted.push_back(batch); });
    ASSERT_TRUE(driver.CheckpointNow());
    injector.ArmOnce(FaultSite::kStageStall, 5);  // the 5th lane apply hangs

    size_t offered = 0;
    for (const MutationBatch& batch : batches) {
      ASSERT_TRUE(BarrierOnHealthy(driver));  // wait out any in-flight recovery
      ASSERT_EQ(driver.IngestBatch(batch), batch.size());
      offered += batch.size();
      driver.Flush();
      ASSERT_TRUE(BarrierOnHealthy(driver));  // batch-at-a-time: per-pair order holds
    }
    ASSERT_TRUE(BarrierOnHealthy(driver));

    EXPECT_GE(injector.fired(FaultSite::kStageStall), 1u);
    const EngineStats stats = driver.stats();
    EXPECT_GE(stats.stalls_detected, 1u);
    EXPECT_GE(stats.watchdog_recoveries, 1u);
    EXPECT_GE(stats.recoveries, 1u);
    EXPECT_TRUE(driver.healthy());
    EXPECT_EQ(stats.mutations_dropped, 0u);
    driver.Stop();

    size_t admitted_total = 0;
    for (const MutationBatch& batch : admitted) {
      admitted_total += batch.size();
    }
    ASSERT_EQ(admitted_total, offered);  // nothing lost, nothing duplicated
  }

  // The unsharded replay: same admitted stream, same flush boundaries.
  StreamDriver<GraphBoltEngine<PageRank>> replay(&reference, {.batch_size = 1u << 20,
                                                              .flush_interval_seconds = 3600.0,
                                                              .coalesce = false});
  for (const MutationBatch& batch : admitted) {
    ASSERT_EQ(replay.IngestBatch(batch), batch.size());
    replay.Flush();
  }
  ExpectBitwiseEqual(engine.values(), replay.values());
}

// ----- kShedToWal differential at shards = 1 | 2 | 4 --------------------------

// Lane 0's worker parks on an injected stall, so flooding lane 0 against a
// capacity-1 queue sheds deterministically into the *shared* shed log while
// sibling lanes ingest their share of the stream. Recovery releases the
// parked worker and the barrier replays the log in shed-sequence order;
// the result must match a run that never shed.
TEST(ShardedShedToWal, OverflowIsDurableAndReplayedAtBarrier) {
  TaskArena::SetNumThreads(1);
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ScopedTempDir ckpt_dir;
    const EdgeList full = GenerateRmat(500, 4000, {.seed = 121});
    const StreamSplit split = SplitForStreaming(full, 0.5, 122);
    const std::vector<Edge> lane0 = EdgesForLaneZero(split.held_back, shards, true);
    const std::vector<Edge> rest = EdgesForLaneZero(split.held_back, shards, false);
    ASSERT_GT(lane0.size(), 4u);
    const std::vector<MutationBatch> lane0_chunks =
        AdditionChunks(lane0, (lane0.size() + 3) / 4);
    ASSERT_EQ(lane0_chunks.size(), 4u);  // A, B, C, D
    const std::vector<MutationBatch> rest_chunks = AdditionChunks(rest, 48);

    MutableGraph graph(split.initial);
    ResetEngine<PageRank> engine(&graph, PageRank{});
    engine.InitialCompute();
    FaultInjector injector(/*seed=*/0x5e + shards);
    Checkpointer<ResetEngine<PageRank>> checkpointer(
        &engine, &graph, {.directory = ckpt_dir.path(), .cadence_batches = 0}, &injector);
    DriverConfig config;
    config.shards = shards;
    config.batch_size = 1u << 20;
    config.flush_interval_seconds = 3600.0;
    config.max_pending_batches = 1;
    config.overflow = OverflowPolicy::kShedToWal;
    config.coalesce = false;
    config.checkpoint_dir = ckpt_dir.path();
    ShardedDriver<ResetEngine<PageRank>> driver(&engine, config, &checkpointer, &injector);
    ASSERT_TRUE(driver.CheckpointNow());
    injector.ArmOnce(FaultSite::kStageStall, 1);

    ASSERT_EQ(driver.IngestBatch(lane0_chunks[0]), lane0_chunks[0].size());  // A
    driver.Flush();
    for (int i = 0; i < 500 && injector.fired(FaultSite::kStageStall) == 0; ++i) {
      std::this_thread::sleep_for(kTick);
    }
    ASSERT_GE(injector.fired(FaultSite::kStageStall), 1u);  // lane 0 parked in A

    ASSERT_EQ(driver.IngestBatch(lane0_chunks[1]), lane0_chunks[1].size());  // B -> queued
    driver.Flush();
    ASSERT_EQ(driver.IngestBatch(lane0_chunks[2]), lane0_chunks[2].size());  // C -> shed
    driver.Flush();
    ASSERT_EQ(driver.IngestBatch(lane0_chunks[3]), lane0_chunks[3].size());  // D -> shed
    driver.Flush();
    EXPECT_GE(driver.stats().mutations_shed_to_wal,
              lane0_chunks[2].size() + lane0_chunks[3].size());

    // Sibling lanes ingest their share against live workers (their own
    // overflow, if any, sheds durably too).
    for (const MutationBatch& chunk : rest_chunks) {
      ASSERT_EQ(driver.IngestBatch(chunk), chunk.size());
      driver.Flush();
    }

    // Recovery releases the parked worker (A sheds), restores the
    // checkpoint, promotes B (preserved in the queue), and drains the shed
    // log in shed-sequence order.
    ASSERT_TRUE(driver.Recover());
    driver.PrepQuery();
    const EngineStats stats = driver.stats();
    EXPECT_TRUE(driver.healthy());
    EXPECT_EQ(stats.mutations_dropped, 0u);
    EXPECT_GE(stats.shed_batches_replayed, 3u);  // C, D, and the parked A

    MutableGraph final_graph(full);
    ExpectMatchesFromScratch(driver.QuerySnapshot(), &final_graph);
  }
}

// ----- kShedOldest differential at shards = 1 | 2 | 4 -------------------------

TEST(ShardedShedOldest, EvictionsAreDurableAcrossLanes) {
  TaskArena::SetNumThreads(1);
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ScopedTempDir ckpt_dir;
    const EdgeList full = GenerateRmat(500, 4000, {.seed = 131});
    const StreamSplit split = SplitForStreaming(full, 0.5, 132);
    const std::vector<Edge> lane0 = EdgesForLaneZero(split.held_back, shards, true);
    const std::vector<Edge> rest = EdgesForLaneZero(split.held_back, shards, false);
    ASSERT_GT(lane0.size(), 4u);
    const std::vector<MutationBatch> lane0_chunks =
        AdditionChunks(lane0, (lane0.size() + 3) / 4);
    ASSERT_EQ(lane0_chunks.size(), 4u);  // A, B, C, D
    const std::vector<MutationBatch> rest_chunks = AdditionChunks(rest, 48);

    MutableGraph graph(split.initial);
    ResetEngine<PageRank> engine(&graph, PageRank{});
    engine.InitialCompute();
    FaultInjector injector(/*seed=*/0x01d + shards);
    Checkpointer<ResetEngine<PageRank>> checkpointer(
        &engine, &graph, {.directory = ckpt_dir.path(), .cadence_batches = 0}, &injector);
    DriverConfig config;
    config.shards = shards;
    config.batch_size = 1u << 20;
    config.flush_interval_seconds = 3600.0;
    config.max_pending_batches = 1;
    config.overflow = OverflowPolicy::kShedOldest;
    config.coalesce = false;
    config.checkpoint_dir = ckpt_dir.path();
    ShardedDriver<ResetEngine<PageRank>> driver(&engine, config, &checkpointer, &injector);
    ASSERT_TRUE(driver.CheckpointNow());
    injector.ArmOnce(FaultSite::kStageStall, 1);

    ASSERT_EQ(driver.IngestBatch(lane0_chunks[0]), lane0_chunks[0].size());  // A
    driver.Flush();
    for (int i = 0; i < 500 && injector.fired(FaultSite::kStageStall) == 0; ++i) {
      std::this_thread::sleep_for(kTick);
    }
    ASSERT_GE(injector.fired(FaultSite::kStageStall), 1u);

    ASSERT_EQ(driver.IngestBatch(lane0_chunks[1]), lane0_chunks[1].size());  // B -> queued
    driver.Flush();
    ASSERT_EQ(driver.IngestBatch(lane0_chunks[2]), lane0_chunks[2].size());  // C evicts B
    driver.Flush();
    ASSERT_EQ(driver.IngestBatch(lane0_chunks[3]), lane0_chunks[3].size());  // D evicts C
    driver.Flush();
    EXPECT_GE(driver.stats().shed_oldest_evictions, 2u);
    EXPECT_GT(driver.stats().mutations_shed_to_wal, 0u);

    for (const MutationBatch& chunk : rest_chunks) {
      ASSERT_EQ(driver.IngestBatch(chunk), chunk.size());
      driver.Flush();
    }

    ASSERT_TRUE(driver.Recover());
    driver.PrepQuery();
    const EngineStats stats = driver.stats();
    EXPECT_TRUE(driver.healthy());
    EXPECT_EQ(stats.mutations_dropped, 0u);
    EXPECT_GE(stats.shed_batches_replayed, 3u);  // B, C, and the parked A

    MutableGraph final_graph(full);
    ExpectMatchesFromScratch(driver.QuerySnapshot(), &final_graph);
  }
}

// ----- kDegrade differential at shards = 1 | 2 | 4 ----------------------------

// The watchdog rides along (30 s timeout — armed but silent) to prove the
// full sentinel trio coexists on one sharded config. Zero governor
// thresholds make the hysteresis deterministic: any queued work while the
// EWMA is warm is pressure, and pressure clears exactly when every lane's
// queue is empty.
TEST(ShardedDegrade, ServesSnapshotUnderPressureThenSelfClears) {
  TaskArena::SetNumThreads(1);
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ScopedTempDir ckpt_dir;
    const EdgeList full = GenerateRmat(500, 4000, {.seed = 141});
    StreamSplit split = SplitForStreaming(full, 0.5, 142);
    ASSERT_GT(split.held_back.size(), 8u);
    // Reserve the last held-back edge as the post-recovery nudge batch.
    const Edge nudge_edge = split.held_back.back();
    split.held_back.pop_back();
    const std::vector<Edge> lane0 = EdgesForLaneZero(split.held_back, shards, true);
    const std::vector<Edge> rest = EdgesForLaneZero(split.held_back, shards, false);
    ASSERT_GT(lane0.size(), 4u);
    const std::vector<MutationBatch> lane0_chunks =
        AdditionChunks(lane0, (lane0.size() + 3) / 4);
    ASSERT_EQ(lane0_chunks.size(), 4u);
    const std::vector<MutationBatch> rest_chunks = AdditionChunks(rest, 48);

    MutableGraph graph(split.initial);
    ResetEngine<PageRank> engine(&graph, PageRank{});
    engine.InitialCompute();
    FaultInjector injector(/*seed=*/0xde9 + shards);
    Checkpointer<ResetEngine<PageRank>> checkpointer(
        &engine, &graph, {.directory = ckpt_dir.path(), .cadence_batches = 0}, &injector);
    DriverConfig config;
    config.shards = shards;
    config.batch_size = 1u << 20;
    config.flush_interval_seconds = 3600.0;
    config.max_pending_batches = 1;
    config.overflow = OverflowPolicy::kDegrade;
    config.coalesce = false;
    config.checkpoint_dir = ckpt_dir.path();
    config.governor = {.degrade_pressure_seconds = 0.0, .recover_pressure_seconds = 0.0};
    config.watchdog_stall_seconds = 30.0;  // armed, silent at test timescales
    ShardedDriver<ResetEngine<PageRank>> driver(&engine, config, &checkpointer, &injector);
    ASSERT_TRUE(driver.CheckpointNow());

    // Warm the latency EWMA with one normally-applied batch.
    ASSERT_EQ(driver.IngestBatch(lane0_chunks[0]), lane0_chunks[0].size());
    driver.Flush();
    driver.PrepQuery();
    ASSERT_GT(driver.stats().apply_ewma_seconds, 0.0);

    // Park lane 0's worker, then overfill it: the next chunk queues, the
    // one after coalesces in the gutter (the kDegrade overflow path).
    injector.ArmOnce(FaultSite::kStageStall, 1);
    ASSERT_EQ(driver.IngestBatch(lane0_chunks[1]), lane0_chunks[1].size());
    driver.Flush();
    for (int i = 0; i < 500 && injector.fired(FaultSite::kStageStall) == 0; ++i) {
      std::this_thread::sleep_for(kTick);
    }
    ASSERT_GE(injector.fired(FaultSite::kStageStall), 1u);
    ASSERT_EQ(driver.IngestBatch(lane0_chunks[2]), lane0_chunks[2].size());
    driver.Flush();
    ASSERT_EQ(driver.IngestBatch(lane0_chunks[3]), lane0_chunks[3].size());
    driver.Flush();

    EXPECT_TRUE(driver.degraded());
    EXPECT_EQ(driver.pending_mutations(), lane0_chunks[3].size());
    // A degraded query returns immediately with the last globally
    // consistent snapshot instead of blocking on a barrier the stalled
    // lane can never clear.
    Timer wall;
    EXPECT_TRUE(driver.PrepQuery());
    EXPECT_LT(wall.Seconds(), 0.2);
    EXPECT_GE(driver.stats().degraded_queries, 1u);
    EXPECT_GE(driver.stats().degraded_entries, 1u);

    // Recovery releases the worker; the remaining stream plus the nudge
    // batch give the governor applies with empty queues behind them, which
    // clears the degraded flag on its own.
    ASSERT_TRUE(driver.Recover());
    for (const MutationBatch& chunk : rest_chunks) {
      ASSERT_EQ(driver.IngestBatch(chunk), chunk.size());
    }
    ASSERT_TRUE(driver.Ingest(EdgeMutation::Add(nudge_edge.src, nudge_edge.dst,
                                                nudge_edge.weight)));
    driver.Flush();
    for (int i = 0; i < 500 && driver.degraded(); ++i) {
      std::this_thread::sleep_for(kTick);
    }
    EXPECT_FALSE(driver.degraded());
    driver.PrepQuery();
    EXPECT_EQ(driver.stats().mutations_dropped, 0u);

    MutableGraph final_graph(full);
    ExpectMatchesFromScratch(driver.QuerySnapshot(), &final_graph);
  }
}

// ----- Satellite regression: the lane stale-flush deadline is monotonic ------

// Sub-batch-size mutations parked in lane gutters must promote at the
// flush deadline with no explicit Flush() — the lane worker carries the
// monotonic deadline across poll timeouts (NextPollSeconds), exactly like
// the PR 5 StreamDriver fix. A second wave proves the deadline re-arms.
TEST(ShardedStaleGutter, FlushDeadlineIsMonotonicAcrossPolls) {
  TaskArena::SetNumThreads(1);
  const EdgeList full = GenerateRmat(200, 1200, {.seed = 151});
  const StreamSplit split = SplitForStreaming(full, 0.5, 152);
  ASSERT_GE(split.held_back.size(), 16u);
  const std::vector<Edge> wave1(split.held_back.begin(), split.held_back.begin() + 8);
  const std::vector<Edge> wave2(split.held_back.begin() + 8, split.held_back.begin() + 16);

  MutableGraph graph(split.initial);
  ResetEngine<PageRank> engine(&graph, PageRank{});
  engine.InitialCompute();
  DriverConfig config;
  config.shards = 4;
  config.batch_size = 1u << 20;  // far above the wave size: only staleness flushes
  config.flush_interval_seconds = 0.08;
  ShardedDriver<ResetEngine<PageRank>> driver(&engine, config);

  MutableGraph final_graph(split.initial);
  for (const std::vector<Edge>* wave : {&wave1, &wave2}) {
    for (const Edge& e : *wave) {
      ASSERT_TRUE(driver.Ingest(EdgeMutation::Add(e.src, e.dst, e.weight)));
      final_graph.ApplyBatch({EdgeMutation::Add(e.src, e.dst, e.weight)});
    }
    // No Flush(): the lane workers must promote the stale gutters on the
    // deadline alone.
    bool drained = false;
    for (int i = 0; i < 500 && !drained; ++i) {
      drained = driver.pending_mutations() == 0;
      if (!drained) {
        std::this_thread::sleep_for(kTick);
      }
    }
    ASSERT_TRUE(drained) << "stale gutters never flushed without an explicit Flush()";
  }
  // One barrier settles any promotion still in flight; after that the
  // fast path confirms nothing is buffered, in flight, or shed anywhere.
  driver.PrepQuery();
  EXPECT_FALSE(driver.PrepQuery());
  EXPECT_GE(driver.stats().batches_applied, 2u);
  EXPECT_EQ(driver.stats().mutations_dropped, 0u);
  ExpectMatchesFromScratch(driver.QuerySnapshot(), &final_graph);
}

// ----- Seed-swept concurrent flood (fuzz) ------------------------------------

// Three producer threads flood 4 lanes with no pacing against capacity-1
// queues under kShedToWal: whatever interleaving a seed produces, nothing
// may be lost and the barrier must land the exact final graph.
TEST(ShardedShedFuzz, ConcurrentFloodZeroLossBitwise) {
  TaskArena::SetNumThreads(1);
  for (const uint64_t seed : FuzzSeeds()) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ScopedTempDir ckpt_dir;
    const EdgeList full = GenerateRmat(300, 2400, {.seed = 400 + seed});
    const StreamSplit split = SplitForStreaming(full, 0.5, 500 + seed);
    const std::vector<MutationBatch> chunks = AdditionChunks(split.held_back, 32);

    MutableGraph graph(split.initial);
    ResetEngine<PageRank> engine(&graph, PageRank{});
    engine.InitialCompute();
    Checkpointer<ResetEngine<PageRank>> checkpointer(
        &engine, &graph, {.directory = ckpt_dir.path(), .cadence_batches = 0});
    DriverConfig config;
    config.shards = 4;
    config.batch_size = 64;  // small enough that lanes flush mid-stream
    config.flush_interval_seconds = 3600.0;
    config.max_pending_batches = 1;
    config.overflow = OverflowPolicy::kShedToWal;
    config.coalesce = false;
    config.checkpoint_dir = ckpt_dir.path();
    ShardedDriver<ResetEngine<PageRank>> driver(&engine, config, &checkpointer);

    constexpr size_t kProducers = 3;
    std::vector<std::thread> producers;
    for (size_t p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        auto session = driver.OpenSession("tenant-" + std::to_string(p));
        for (size_t i = p; i < chunks.size(); i += kProducers) {
          EXPECT_EQ(session.IngestBatch(chunks[i]), chunks[i].size());
        }
      });
    }
    for (std::thread& t : producers) {
      t.join();
    }
    driver.PrepQuery();

    size_t offered = 0;
    for (const MutationBatch& chunk : chunks) {
      offered += chunk.size();
    }
    const EngineStats stats = driver.stats();
    EXPECT_EQ(stats.mutations_enqueued, offered);
    EXPECT_EQ(stats.mutations_dropped, 0u);

    MutableGraph final_graph(full);
    ExpectMatchesFromScratch(driver.QuerySnapshot(), &final_graph);
  }
}

// ----- The sharded acceptance torture test -----------------------------------

// Poison batches, 4x overload (no pacing against capacity-2 lane queues),
// and one injected lane stall, all on 4 shards with watchdog auto-recovery
// on. The apply observer maintains a shadow graph of the admitted stream
// in promotion order (recovery's first-time promotions included), so the
// zero-loss claim is structural: observed == accepted, and a from-scratch
// run over the shadow graph must be bitwise-identical.
TEST(TortureShardedSentinel, PoisonOverloadStallZeroLossFourLanes) {
  TaskArena::SetNumThreads(1);
  ScopedTempDir ckpt_dir;
  ScopedTempDir quarantine_dir;
  const EdgeList full = GenerateRmat(1000, 9000, {.seed = 301});
  const StreamSplit split = SplitForStreaming(full, 0.5, 302);
  const std::vector<MutationBatch> valid = AdditionChunks(split.held_back, 48);
  ASSERT_GT(valid.size(), 30u);

  MutableGraph graph(split.initial);
  ResetEngine<PageRank> engine(&graph, PageRank{});
  engine.InitialCompute();
  FaultInjector injector(/*seed=*/0x70b8);
  Checkpointer<ResetEngine<PageRank>> checkpointer(
      &engine, &graph, {.directory = ckpt_dir.path(), .cadence_batches = 8}, &injector);
  DriverConfig config;
  config.shards = 4;
  config.batch_size = 1u << 20;
  config.flush_interval_seconds = 3600.0;
  config.max_pending_batches = 2;
  config.overflow = OverflowPolicy::kShedToWal;
  config.coalesce = false;
  config.checkpoint_dir = ckpt_dir.path();
  config.quarantine_dir = quarantine_dir.path();
  config.admission = {.max_vertex_id = 1u << 20};
  config.watchdog_stall_seconds = 0.5;
  ShardedDriver<ResetEngine<PageRank>> driver(&engine, config, &checkpointer, &injector);

  MutableGraph shadow(split.initial);  // the admitted stream, promotion order
  std::atomic<uint64_t> observed_mutations{0};
  driver.set_apply_observer([&](size_t, const MutationBatch& batch) {
    shadow.ApplyBatch(batch);
    observed_mutations.fetch_add(batch.size());
  });
  ASSERT_TRUE(driver.CheckpointNow());
  // Arm low: under kShedToWal the unpaced flood sheds most batches before
  // they ever reach a lane's apply stage, and shed batches replay only at
  // the barrier — so on a loaded machine a high hit count may never be
  // reached before the post-loop check. The 2nd apply is still mid-flood.
  injector.ArmOnce(FaultSite::kStageStall, 2);

  const float nan = std::numeric_limits<float>::quiet_NaN();
  size_t poison_batches = 0;
  size_t poison_mutations = 0;
  uint64_t accepted_total = 0;
  uint64_t offered_total = 0;
  for (size_t i = 0; i < valid.size(); ++i) {
    if (i % 7 == 3) {
      // Alternate poison flavors; all must bounce to quarantine even while
      // the lanes are overloaded or mid-recovery.
      MutationBatch poison;
      if (i % 14 == 3) {
        for (int k = 0; k < 5; ++k) {
          poison.push_back(EdgeMutation::Add(1, 2 + k, nan));
        }
      } else {
        for (int k = 0; k < 5; ++k) {
          poison.push_back(EdgeMutation::Add((2u << 20) + k, 1));
        }
      }
      ASSERT_EQ(driver.IngestBatch(poison), 0u);
      ++poison_batches;
      poison_mutations += poison.size();
    }
    // No pacing: ingestion runs far ahead of the lane workers, so queues
    // overflow and kShedToWal sheds durably. During the auto-recovery
    // window a lane may refuse its sub-batch; the rejects are the only
    // accounted losses.
    accepted_total += driver.IngestBatch(valid[i]);
    offered_total += valid[i].size();
    driver.Flush();
  }

  // The stall must have fired and the watchdog must have healed the driver
  // without any help from the test.
  for (int i = 0; i < 500 && injector.fired(FaultSite::kStageStall) == 0; ++i) {
    std::this_thread::sleep_for(kTick);
  }
  EXPECT_GE(injector.fired(FaultSite::kStageStall), 1u);
  // The lane turns healthy the moment it sheds its stuck batch, but the
  // escalated Recover() runs on the watchdog thread and lands later — wait
  // for it before auditing the counters.
  for (int i = 0; i < 500 && driver.stats().watchdog_recoveries == 0; ++i) {
    std::this_thread::sleep_for(kTick);
  }
  ASSERT_TRUE(AwaitHealthy(driver));
  ASSERT_TRUE(BarrierOnHealthy(driver));

  const EngineStats stats = driver.stats();
  EXPECT_TRUE(driver.healthy());
  EXPECT_GE(stats.stalls_detected, 1u);
  EXPECT_GE(stats.watchdog_recoveries, 1u);
  EXPECT_GT(stats.mutations_shed_to_wal, 0u) << "overload never engaged the shed path";

  // Exact accounting: every poison batch is in the dead-letter WAL, every
  // accepted mutation was promoted exactly once, and the only losses are
  // the explicitly-counted recovery-window rejections.
  EXPECT_EQ(stats.batches_quarantined, poison_batches);
  EXPECT_EQ(stats.mutations_quarantined, poison_mutations);
  EXPECT_EQ(driver.quarantined_batches(), poison_batches);
  size_t parked = 0;
  driver.quarantine()->ForEach([&](RejectReason reason, MutationBatch&& batch) {
    ++parked;
    EXPECT_TRUE(reason == RejectReason::kNonFiniteWeight ||
                reason == RejectReason::kVertexOutOfRange);
    EXPECT_EQ(batch.size(), 5u);
  });
  EXPECT_EQ(parked, poison_batches);
  EXPECT_EQ(stats.mutations_enqueued, accepted_total);
  EXPECT_EQ(stats.mutations_dropped, offered_total - accepted_total);

  // QuerySnapshot synchronizes on the engine mutex, which also publishes
  // the observer's shadow-graph writes to this thread.
  const auto snapshot = driver.QuerySnapshot();
  EXPECT_EQ(observed_mutations.load(), accepted_total);
  EXPECT_EQ(graph.num_edges(), shadow.num_edges());

  // From-scratch run over the admitted stream: bitwise-identical.
  ExpectMatchesFromScratch(snapshot, &shadow);
}

}  // namespace
}  // namespace graphbolt

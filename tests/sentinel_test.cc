// Sentinel tier: admission control, poison-batch quarantine, overload
// policies (kShedOldest / kDegrade), and the stall watchdog, driven against
// a real StreamDriver with deterministic fault injection.
//
// The differential tests follow the ChaosStream convention
// (fault_recovery_test.cc): one pool thread, pre-generated batch streams,
// and bitwise (==) comparison against a fault-free reference. Tests whose
// overload policy reorders batches (shedding re-applies at the barrier)
// use addition-only streams against ResetEngine, whose result depends only
// on the final graph, so equality stays exact under reordering.
//
// Compiled with GRAPHBOLT_FAULT_INJECTION=1 (like fault_recovery_test) so
// kQuarantineAppend and kStageStall are live hooks. `ctest -L fault` runs
// it; the quarantine round-trip is seed-swept (`-L fuzz`).
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/algorithms/pagerank.h"
#include "src/core/graphbolt_engine.h"
#include "src/driver/gutter_buffer.h"
#include "src/driver/stream_driver.h"
#include "src/engine/reset_engine.h"
#include "src/fault/checkpoint.h"
#include "src/fault/fault_injector.h"
#include "src/graph/generators.h"
#include "src/graph/mutable_graph.h"
#include "src/parallel/bounded_queue.h"
#include "src/parallel/task_arena.h"
#include "src/sentinel/admission.h"
#include "src/sentinel/quarantine.h"
#include "src/sentinel/watchdog.h"
#include "src/stream/update_stream.h"
#include "src/util/timer.h"
#include "tests/test_util.h"

namespace graphbolt {
namespace {

constexpr auto kTick = std::chrono::milliseconds(10);

uint64_t SplitMix(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Pre-generates `count` batches against an evolving shadow graph (same
// helper as fault_recovery_test.cc, so both tiers see comparable streams).
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

// Chops the held-back additions into distinct-edge, addition-only batches.
// Distinct edges make the final graph independent of batch boundaries and
// apply order, which is what lets shedding tests compare bitwise.
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

// Spins until the driver reports healthy again (watchdog auto-recovery runs
// on the watchdog thread, so the test just waits for it to land).
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

// ----- Admission screen (pure, no driver) -----------------------------------

TEST(AdmissionScreen, CleanBatchAdmitted) {
  MutationBatch batch = {EdgeMutation::Add(1, 2, 0.5f), EdgeMutation::Delete(2, 3),
                         EdgeMutation::UpdateWeight(3, 4, 1.5f)};
  const AdmissionVerdict verdict = ScreenBatch(batch, AdmissionLimits{});
  EXPECT_TRUE(verdict.admitted());
  EXPECT_EQ(verdict.reason, RejectReason::kNone);
}

TEST(AdmissionScreen, OversizedBatchRejected) {
  AdmissionLimits limits;
  limits.max_batch_mutations = 4;
  MutationBatch batch(5, EdgeMutation::Add(1, 2));
  EXPECT_EQ(ScreenBatch(batch, limits).reason, RejectReason::kOversizedBatch);
  batch.resize(4);
  // At the limit is fine (4 identical mutations stay under the flood
  // minimum, so the duplicate check does not apply).
  EXPECT_TRUE(ScreenBatch(batch, limits).admitted());
  limits.max_batch_mutations = 0;  // 0 = unlimited
  batch.resize(5);
  EXPECT_TRUE(ScreenBatch(batch, limits).admitted());
}

TEST(AdmissionScreen, OutOfRangeVertexRejectedWithIndex) {
  AdmissionLimits limits;
  limits.max_vertex_id = 100;
  MutationBatch batch = {EdgeMutation::Add(1, 2), EdgeMutation::Add(3, 101),
                         EdgeMutation::Add(4, 5)};
  const AdmissionVerdict verdict = ScreenBatch(batch, limits);
  EXPECT_EQ(verdict.reason, RejectReason::kVertexOutOfRange);
  EXPECT_EQ(verdict.offending_index, 1u);
  EXPECT_EQ(ScreenMutation(EdgeMutation::Add(101, 1), limits).reason,
            RejectReason::kVertexOutOfRange);
  EXPECT_TRUE(ScreenMutation(EdgeMutation::Add(100, 100), limits).admitted());
}

TEST(AdmissionScreen, NonFiniteWeightRejectedExceptOnDeletes) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  AdmissionLimits limits;
  EXPECT_EQ(ScreenMutation(EdgeMutation::Add(1, 2, nan), limits).reason,
            RejectReason::kNonFiniteWeight);
  EXPECT_EQ(ScreenMutation(EdgeMutation::UpdateWeight(1, 2, inf), limits).reason,
            RejectReason::kNonFiniteWeight);
  // A delete's weight field is dead payload — never screened.
  EXPECT_TRUE(ScreenMutation(EdgeMutation::Delete(1, 2), limits).admitted());
  limits.reject_non_finite_weights = false;
  EXPECT_TRUE(ScreenMutation(EdgeMutation::Add(1, 2, nan), limits).admitted());
  MutationBatch batch = {EdgeMutation::Add(1, 2), EdgeMutation::Add(2, 3, inf)};
  const AdmissionVerdict verdict = ScreenBatch(batch, AdmissionLimits{});
  EXPECT_EQ(verdict.reason, RejectReason::kNonFiniteWeight);
  EXPECT_EQ(verdict.offending_index, 1u);
}

TEST(AdmissionScreen, SelfLoopFloodRejectedOnlyAboveMinimum) {
  AdmissionLimits limits;  // flood_min_mutations = 64, max fraction 0.5
  MutationBatch flood;
  for (VertexId v = 0; v < 80; ++v) {
    flood.push_back(EdgeMutation::Add(v, v));  // distinct pairs: no dup flood
  }
  EXPECT_EQ(ScreenBatch(flood, limits).reason, RejectReason::kSelfLoopFlood);
  // The same junk below the flood minimum passes (normalization absorbs it).
  MutationBatch small(flood.begin(), flood.begin() + 32);
  EXPECT_TRUE(ScreenBatch(small, limits).admitted());
}

TEST(AdmissionScreen, DuplicateFloodRejected) {
  AdmissionLimits limits;  // max_duplicate_fraction = 0.9
  MutationBatch flood(100, EdgeMutation::Add(7, 9, 1.0f));  // 99/100 duplicates
  EXPECT_EQ(ScreenBatch(flood, limits).reason, RejectReason::kDuplicateFlood);
  // 50/100 duplicates is under the threshold.
  MutationBatch mixed;
  for (VertexId v = 0; v < 50; ++v) {
    mixed.push_back(EdgeMutation::Add(v, v + 1));
    mixed.push_back(EdgeMutation::Add(7, 9));
  }
  EXPECT_TRUE(ScreenBatch(mixed, limits).admitted());
}

// ----- Satellite units: backoff cap, evicting queue, gutter refill ----------

TEST(BackoffCap, DelayCappedAtMaxAcrossSleeps) {
  Backoff backoff(0.0004, 8.0, /*max_seconds=*/0.001, /*seed=*/7);
  EXPECT_DOUBLE_EQ(backoff.next_delay_seconds(), 0.0004);
  EXPECT_DOUBLE_EQ(backoff.max_seconds(), 0.001);
  backoff.Sleep();  // 0.0004 * 8 = 0.0032 -> capped
  EXPECT_DOUBLE_EQ(backoff.next_delay_seconds(), 0.001);
  backoff.Sleep();  // stays at the cap
  EXPECT_DOUBLE_EQ(backoff.next_delay_seconds(), 0.001);
}

TEST(BackoffCap, DefaultIsEffectivelyUncapped) {
  Backoff backoff(0.25, 2.0);
  EXPECT_GE(backoff.max_seconds(), 1e29);
  EXPECT_DOUBLE_EQ(backoff.next_delay_seconds(), 0.25);
}

TEST(BoundedQueueEvict, PushEvictOldestEvictsFifoHead) {
  BoundedQueue<int> queue(2);
  ASSERT_TRUE(queue.TryPush(1));
  ASSERT_TRUE(queue.TryPush(2));
  std::optional<int> evicted;
  ASSERT_TRUE(queue.PushEvictOldest(3, &evicted));
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(*evicted, 1);
  // Below capacity nothing is evicted.
  auto a = queue.Pop();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, 2);
  ASSERT_TRUE(queue.PushEvictOldest(4, &evicted));
  EXPECT_FALSE(evicted.has_value());
  EXPECT_EQ(queue.size(), 2u);
  queue.Close();
  EXPECT_FALSE(queue.PushEvictOldest(5, &evicted));
  EXPECT_FALSE(evicted.has_value());
}

TEST(GutterRefill, RefilledBatchGoesToTheFront) {
  GutterBuffer gutter;
  uint64_t coalesced = 0;
  gutter.Add(EdgeMutation::Add(1, 2));
  gutter.Add(EdgeMutation::Add(3, 4));
  MutationBatch taken = gutter.Take(/*coalesce=*/false, &coalesced);
  ASSERT_EQ(taken.size(), 2u);
  gutter.Add(EdgeMutation::Add(5, 6));
  gutter.Refill(std::move(taken));
  MutationBatch merged = gutter.Take(/*coalesce=*/false, &coalesced);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].src, 1u);
  EXPECT_EQ(merged[1].src, 3u);
  EXPECT_EQ(merged[2].src, 5u);
  // Refill into an empty gutter restores the batch as-is.
  gutter.Refill(std::move(merged));
  EXPECT_EQ(gutter.size(), 3u);
  EXPECT_TRUE(gutter.Take(false, &coalesced).size() == 3u && gutter.empty());
}

// ----- Watchdog (standalone) -------------------------------------------------

TEST(WatchdogUnit, FiresOncePerBusyEpisodeAndNeverWhenIdle) {
  StallWatchdog watchdog;
  std::atomic<int> fires{0};
  StallCause seen;
  std::mutex seen_mu;
  watchdog.Start({.poll_interval_seconds = 0.005, .stall_timeout_seconds = 0.03},
                 [&](const StallCause& cause) {
                   std::lock_guard<std::mutex> lock(seen_mu);
                   seen = cause;
                   fires.fetch_add(1);
                 });
  // Idle stages never stall.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_EQ(fires.load(), 0);

  watchdog.EnterStage(PipelineStage::kApply);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ(fires.load(), 1);  // once per episode, not once per poll
  {
    std::lock_guard<std::mutex> lock(seen_mu);
    EXPECT_EQ(seen.stage, PipelineStage::kApply);
    EXPECT_GE(seen.stalled_seconds, 0.03);
  }
  watchdog.LeaveStage(PipelineStage::kApply);
  EXPECT_GE(watchdog.stalls_detected(), 1u);
  ASSERT_TRUE(watchdog.last_stall().has_value());
  watchdog.ClearStall();
  EXPECT_FALSE(watchdog.last_stall().has_value());

  // A new busy episode reports again.
  watchdog.EnterStage(PipelineStage::kCheckpoint);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(fires.load(), 2);
  watchdog.LeaveStage(PipelineStage::kCheckpoint);
  watchdog.Stop();
}

// ----- Quarantine: bitwise round-trip (seed-swept) ---------------------------

TEST(QuarantineFuzz, DeadLetterRoundTripsBitwise) {
  for (uint64_t seed : FuzzSeeds()) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    ScopedTempDir tmp;
    uint64_t rng = seed * 0x9e3779b97f4a7c15ULL + 1;
    std::vector<std::pair<RejectReason, MutationBatch>> expected;
    auto quarantine = std::make_unique<Quarantine>(tmp.path());
    for (int b = 0; b < 20; ++b) {
      MutationBatch batch;
      const size_t n = 1 + SplitMix(rng) % 50;
      for (size_t i = 0; i < n; ++i) {
        EdgeMutation m;
        m.kind = static_cast<MutationKind>(SplitMix(rng) % 3);
        m.src = static_cast<VertexId>(SplitMix(rng));
        m.dst = static_cast<VertexId>(SplitMix(rng));
        // Arbitrary bit patterns, including NaN/Inf/denormals: the
        // dead-letter WAL must preserve them exactly.
        m.weight = std::bit_cast<Weight>(static_cast<uint32_t>(SplitMix(rng)));
        batch.push_back(m);
      }
      const auto reason =
          static_cast<RejectReason>(1 + SplitMix(rng) % (static_cast<uint64_t>(
                                            RejectReason::kNumReasons) - 1));
      ASSERT_TRUE(quarantine->Append(reason, batch));
      expected.emplace_back(reason, std::move(batch));
    }
    ASSERT_EQ(quarantine->parked_batches(), expected.size());

    auto check = [&](size_t i, RejectReason reason, const MutationBatch& batch) {
      ASSERT_LT(i, expected.size());
      EXPECT_EQ(reason, expected[i].first);
      const MutationBatch& want = expected[i].second;
      ASSERT_EQ(batch.size(), want.size());
      for (size_t m = 0; m < batch.size(); ++m) {
        EXPECT_EQ(batch[m].kind, want[m].kind);
        EXPECT_EQ(batch[m].src, want[m].src);
        EXPECT_EQ(batch[m].dst, want[m].dst);
        EXPECT_EQ(std::bit_cast<uint32_t>(batch[m].weight),
                  std::bit_cast<uint32_t>(want[m].weight));
      }
    };

    // Non-consuming inspection view.
    size_t i = 0;
    EXPECT_EQ(quarantine->ForEach([&](RejectReason reason, MutationBatch&& batch) {
                check(i, reason, batch);
                ++i;
              }),
              expected.size());

    // The log survives a process restart: a fresh instance on the same
    // directory replays the identical records.
    quarantine.reset();
    quarantine = std::make_unique<Quarantine>(tmp.path());
    i = 0;
    EXPECT_EQ(quarantine->ForEach([&](RejectReason reason, MutationBatch&& batch) {
                check(i, reason, batch);
                ++i;
              }),
              expected.size());

    // Drain consumes: same records once, then empty.
    i = 0;
    EXPECT_EQ(quarantine->Drain([&](RejectReason reason, MutationBatch&& batch) {
                check(i, reason, batch);
                ++i;
              }),
              expected.size());
    EXPECT_EQ(quarantine->parked_batches(), 0u);
    EXPECT_EQ(quarantine->ForEach([](RejectReason, MutationBatch&&) {}), 0u);
  }
}

// ----- Driver integration: poison never reaches the engine -------------------

TEST(AdmissionDriver, PoisonBatchesQuarantinedBitwiseCleanResult) {
  TaskArena::SetNumThreads(1);
  ScopedTempDir quarantine_dir;
  const EdgeList full = GenerateRmat(600, 5000, {.seed = 31});
  const StreamSplit split = SplitForStreaming(full, 0.5, 32);
  const std::vector<MutationBatch> valid = MakeBatches(split, 12, 80, 33);

  MutableGraph graph(split.initial);
  GraphBoltEngine<PageRank> engine(&graph, PageRank{});
  MutableGraph ref_graph(split.initial);
  GraphBoltEngine<PageRank> reference(&ref_graph, PageRank{});
  engine.InitialCompute();
  reference.InitialCompute();

  const VertexId max_id = full.num_vertices() * 4;
  StreamDriver<GraphBoltEngine<PageRank>> driver(
      &engine, {.batch_size = 1u << 20,
                .flush_interval_seconds = 3600.0,
                .coalesce = false,
                .quarantine_dir = quarantine_dir.path(),
                .admission = {.max_batch_mutations = 512, .max_vertex_id = max_id}});

  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<MutationBatch> poisons;
  poisons.push_back(MutationBatch(600, EdgeMutation::Add(1, 2)));        // oversized
  poisons.push_back({EdgeMutation::Add(max_id + 7, 1)});                 // out of range
  poisons.push_back({EdgeMutation::Add(1, 2), EdgeMutation::Add(2, 3, nan)});
  MutationBatch loops;
  for (VertexId v = 0; v < 80; ++v) {
    loops.push_back(EdgeMutation::Add(v, v));
  }
  poisons.push_back(std::move(loops));                                   // self-loop flood
  poisons.push_back(MutationBatch(100, EdgeMutation::Add(5, 6)));        // duplicate flood

  size_t poison_mutations = 0;
  for (size_t i = 0; i < valid.size(); ++i) {
    if (i < poisons.size()) {
      ASSERT_EQ(driver.IngestBatch(poisons[i]), 0u) << "poison batch " << i << " was admitted";
      poison_mutations += poisons[i].size();
    }
    ASSERT_EQ(driver.IngestBatch(valid[i]), valid[i].size());
    driver.Flush();
    reference.ApplyMutations(valid[i]);
  }
  driver.PrepQuery();

  const EngineStats stats = driver.stats();
  EXPECT_EQ(stats.batches_quarantined, poisons.size());
  EXPECT_EQ(stats.mutations_quarantined, poison_mutations);
  EXPECT_EQ(driver.quarantined_batches(), poisons.size());
  EXPECT_EQ(stats.mutations_dropped, 0u);
  EXPECT_EQ(stats.mutations_enqueued, 12u * 80u);

  // Every reject is parked with the reason admission reported.
  std::vector<RejectReason> reasons;
  driver.quarantine()->ForEach(
      [&](RejectReason reason, MutationBatch&&) { reasons.push_back(reason); });
  ASSERT_EQ(reasons.size(), poisons.size());
  EXPECT_EQ(reasons[0], RejectReason::kOversizedBatch);
  EXPECT_EQ(reasons[1], RejectReason::kVertexOutOfRange);
  EXPECT_EQ(reasons[2], RejectReason::kNonFiniteWeight);
  EXPECT_EQ(reasons[3], RejectReason::kSelfLoopFlood);
  EXPECT_EQ(reasons[4], RejectReason::kDuplicateFlood);

  // The engine saw only the admitted stream: bitwise-identical to the
  // reference that never met the poison.
  const auto& values = engine.values();
  const auto& want = reference.values();
  ASSERT_EQ(values.size(), want.size());
  for (size_t v = 0; v < values.size(); ++v) {
    ASSERT_EQ(values[v], want[v]) << "vertex " << v;
  }
}

TEST(AdmissionDriver, SingleMutationScreenedByIngest) {
  ScopedTempDir quarantine_dir;
  MutableGraph graph(GenerateRmat(64, 256, {.seed = 5}));
  GraphBoltEngine<PageRank> engine(&graph, PageRank{});
  engine.InitialCompute();
  StreamDriver<GraphBoltEngine<PageRank>> driver(
      &engine, {.quarantine_dir = quarantine_dir.path(),
                .admission = {.max_vertex_id = 1000}});
  EXPECT_TRUE(driver.Ingest(EdgeMutation::Add(1, 2)));
  EXPECT_FALSE(driver.Ingest(EdgeMutation::Add(1001, 2)));
  EXPECT_FALSE(
      driver.Ingest(EdgeMutation::Add(3, 4, std::numeric_limits<float>::quiet_NaN())));
  driver.PrepQuery();
  const EngineStats stats = driver.stats();
  EXPECT_EQ(stats.batches_quarantined, 2u);
  EXPECT_EQ(stats.mutations_quarantined, 2u);
  EXPECT_EQ(stats.mutations_enqueued, 1u);
}

TEST(AdmissionDriver, QuarantineAppendFailureCountsDropped) {
  ScopedTempDir quarantine_dir;
  MutableGraph graph(GenerateRmat(64, 256, {.seed = 6}));
  GraphBoltEngine<PageRank> engine(&graph, PageRank{});
  engine.InitialCompute();
  FaultInjector injector;
  StreamDriver<GraphBoltEngine<PageRank>> driver(
      &engine, {.quarantine_dir = quarantine_dir.path(), .admission = {.max_vertex_id = 1000}},
      nullptr, &injector);
  injector.ArmOnce(FaultSite::kQuarantineAppend, 1);
  MutationBatch poison = {EdgeMutation::Add(2000, 1), EdgeMutation::Add(2001, 2)};
  EXPECT_EQ(driver.IngestBatch(poison), 0u);
  EXPECT_GE(injector.fired(FaultSite::kQuarantineAppend), 1u);
  const EngineStats stats = driver.stats();
  // The dead-letter write failed, so the batch is accounted dropped — never
  // silently half-counted as quarantined.
  EXPECT_EQ(stats.batches_quarantined, 0u);
  EXPECT_EQ(stats.mutations_quarantined, 0u);
  EXPECT_EQ(stats.mutations_dropped, poison.size());
  EXPECT_EQ(driver.quarantined_batches(), 0u);
  // The next reject (injector disarmed) parks normally.
  EXPECT_EQ(driver.IngestBatch(poison), 0u);
  EXPECT_EQ(driver.quarantined_batches(), 1u);
}

// ----- ReplayQuarantine: fix-up equivalence ----------------------------------

// Poisoned copies of real batches (every vertex id offset out of range) are
// quarantined, fixed up (offset removed), and replayed. The result must be
// bitwise-identical to a reference that applies the valid stream followed by
// the repaired batches — i.e. a replayed batch is indistinguishable from a
// batch that was never poisoned.
TEST(ReplayQuarantineTest, FixupEquivalenceBitwise) {
  TaskArena::SetNumThreads(1);
  ScopedTempDir quarantine_dir;
  const EdgeList full = GenerateRmat(600, 5000, {.seed = 41});
  const StreamSplit split = SplitForStreaming(full, 0.5, 42);
  const std::vector<MutationBatch> batches = MakeBatches(split, 10, 80, 43);

  MutableGraph graph(split.initial);
  GraphBoltEngine<PageRank> engine(&graph, PageRank{});
  MutableGraph ref_graph(split.initial);
  GraphBoltEngine<PageRank> reference(&ref_graph, PageRank{});
  engine.InitialCompute();
  reference.InitialCompute();

  const VertexId max_id = full.num_vertices() * 4;
  const VertexId offset = max_id + 1000;
  StreamDriver<GraphBoltEngine<PageRank>> driver(
      &engine, {.batch_size = 1u << 20,
                .flush_interval_seconds = 3600.0,
                .coalesce = false,
                .quarantine_dir = quarantine_dir.path(),
                .admission = {.max_vertex_id = max_id}});

  // Batches 0..6 are the valid stream; 7..9 arrive poisoned.
  MutationBatch repaired_concat;
  for (size_t i = 0; i < batches.size(); ++i) {
    if (i < 7) {
      ASSERT_EQ(driver.IngestBatch(batches[i]), batches[i].size());
      driver.Flush();
      reference.ApplyMutations(batches[i]);
      continue;
    }
    MutationBatch poisoned = batches[i];
    for (EdgeMutation& m : poisoned) {
      m.src += offset;
      m.dst += offset;
    }
    ASSERT_EQ(driver.IngestBatch(poisoned), 0u);
    repaired_concat.insert(repaired_concat.end(), batches[i].begin(), batches[i].end());
  }
  driver.PrepQuery();
  ASSERT_EQ(driver.quarantined_batches(), 3u);

  const size_t fed = driver.ReplayQuarantine([&](RejectReason reason, MutationBatch& batch) {
    EXPECT_EQ(reason, RejectReason::kVertexOutOfRange);
    for (EdgeMutation& m : batch) {
      m.src -= offset;
      m.dst -= offset;
    }
    return true;
  });
  EXPECT_EQ(fed, 3u);
  driver.Flush();
  driver.PrepQuery();
  // The three repaired batches re-entered through the gutter and flushed as
  // one unit; the reference applies the same concatenation as one batch.
  reference.ApplyMutations(repaired_concat);

  const EngineStats stats = driver.stats();
  EXPECT_EQ(stats.quarantine_replayed, 3u);
  EXPECT_EQ(stats.quarantine_discarded, 0u);
  EXPECT_EQ(driver.quarantined_batches(), 0u);

  const auto& values = engine.values();
  const auto& want = reference.values();
  ASSERT_EQ(values.size(), want.size());
  for (size_t v = 0; v < values.size(); ++v) {
    ASSERT_EQ(values[v], want[v]) << "vertex " << v;
  }
}

TEST(ReplayQuarantineTest, DiscardAndStillPoisonPaths) {
  ScopedTempDir quarantine_dir;
  MutableGraph graph(GenerateRmat(64, 256, {.seed = 7}));
  GraphBoltEngine<PageRank> engine(&graph, PageRank{});
  engine.InitialCompute();
  StreamDriver<GraphBoltEngine<PageRank>> driver(
      &engine, {.quarantine_dir = quarantine_dir.path(),
                .admission = {.max_vertex_id = 1000}});
  MutationBatch poison_a = {EdgeMutation::Add(5000, 1)};
  MutationBatch poison_b = {EdgeMutation::Add(6000, 2), EdgeMutation::Add(6001, 3)};
  ASSERT_EQ(driver.IngestBatch(poison_a), 0u);
  ASSERT_EQ(driver.IngestBatch(poison_b), 0u);
  ASSERT_EQ(driver.quarantined_batches(), 2u);

  // Discard the first, wave the second through unchanged: still poison, so
  // it re-quarantines instead of reaching the engine.
  size_t calls = 0;
  const size_t fed = driver.ReplayQuarantine(
      [&](RejectReason, MutationBatch&) { return ++calls != 1; });
  EXPECT_EQ(fed, 2u);
  const EngineStats stats = driver.stats();
  EXPECT_EQ(stats.quarantine_discarded, 1u);
  EXPECT_EQ(stats.quarantine_replayed, 0u);
  EXPECT_EQ(stats.mutations_dropped, 1u);        // the discarded batch
  EXPECT_EQ(stats.batches_quarantined, 3u);      // 2 originals + 1 re-park
  EXPECT_EQ(driver.quarantined_batches(), 1u);   // only the still-poison one
  EXPECT_EQ(stats.mutations_enqueued, 0u);       // nothing ever reached the gutter
}

// ----- Stall watchdog drives Recover() automatically -------------------------

TEST(WatchdogDriver, InjectedStallAutoRecoversBitwise) {
  TaskArena::SetNumThreads(1);
  ScopedTempDir ckpt_dir;
  const EdgeList full = GenerateRmat(600, 5000, {.seed = 61});
  const StreamSplit split = SplitForStreaming(full, 0.5, 62);
  const std::vector<MutationBatch> batches = MakeBatches(split, 10, 80, 63);

  MutableGraph graph(split.initial);
  GraphBoltEngine<PageRank> engine(&graph, PageRank{});
  MutableGraph ref_graph(split.initial);
  GraphBoltEngine<PageRank> reference(&ref_graph, PageRank{});
  engine.InitialCompute();
  reference.InitialCompute();

  FaultInjector injector;
  Checkpointer<GraphBoltEngine<PageRank>> checkpointer(
      &engine, &graph, {.directory = ckpt_dir.path(), .cadence_batches = 3}, &injector);
  StreamDriver<GraphBoltEngine<PageRank>> driver(
      &engine, {.batch_size = 1u << 20,
                .flush_interval_seconds = 3600.0,
                .coalesce = false,
                .watchdog_stall_seconds = 0.3},
      &checkpointer, &injector);
  ASSERT_TRUE(driver.CheckpointNow());
  injector.ArmOnce(FaultSite::kStageStall, 5);  // the 5th apply hangs

  for (const MutationBatch& batch : batches) {
    ASSERT_TRUE(BarrierOnHealthy(driver));  // wait out any in-flight recovery
    ASSERT_EQ(driver.IngestBatch(batch), batch.size());
    driver.Flush();
    reference.ApplyMutations(batch);
    ASSERT_TRUE(BarrierOnHealthy(driver));  // batch-at-a-time: deterministic order
  }
  ASSERT_TRUE(BarrierOnHealthy(driver));

  EXPECT_GE(injector.fired(FaultSite::kStageStall), 1u);
  const EngineStats stats = driver.stats();
  EXPECT_GE(stats.stalls_detected, 1u);
  EXPECT_GE(stats.watchdog_recoveries, 1u);
  EXPECT_GE(stats.recoveries, 1u);
  EXPECT_TRUE(driver.healthy());  // self-recovered: the test never called Recover
  EXPECT_EQ(stats.mutations_dropped, 0u);

  // The stalled batch was shed durably and replayed in order, so the result
  // is bitwise-identical to the never-stalled reference.
  const auto& values = engine.values();
  const auto& want = reference.values();
  ASSERT_EQ(values.size(), want.size());
  for (size_t v = 0; v < values.size(); ++v) {
    ASSERT_EQ(values[v], want[v]) << "vertex " << v;
  }
}

// ----- kShedOldest: deterministic eviction, nothing lost ---------------------

// Parks the worker on an injected stall (no watchdog) so the queue state is
// fully deterministic: with capacity 1, flushing B, C, D evicts B then C
// into the shed log. Recovery releases the worker (which sheds its in-hand
// batch) and replays everything, so the final state matches a run that
// never shed. Addition-only + ResetEngine keeps the comparison exact under
// the reordering that shedding introduces.
TEST(ShedOldest, EvictionsAreDurableAndReplayed) {
  TaskArena::SetNumThreads(1);
  ScopedTempDir ckpt_dir;
  const EdgeList full = GenerateRmat(500, 4000, {.seed = 71});
  StreamSplit split = SplitForStreaming(full, 0.5, 72);
  const std::vector<MutationBatch> chunks =
      AdditionChunks(split.held_back, (split.held_back.size() + 3) / 4);
  ASSERT_EQ(chunks.size(), 4u);  // A, B, C, D

  MutableGraph graph(split.initial);
  ResetEngine<PageRank> engine(&graph, PageRank{});
  engine.InitialCompute();
  FaultInjector injector;
  Checkpointer<ResetEngine<PageRank>> checkpointer(
      &engine, &graph, {.directory = ckpt_dir.path(), .cadence_batches = 0}, &injector);
  using Driver = StreamDriver<ResetEngine<PageRank>>;
  Driver driver(&engine, {.batch_size = 1u << 20,
                          .flush_interval_seconds = 3600.0,
                          .max_pending_batches = 1,
                          .overflow = Driver::OverflowPolicy::kShedOldest,
                          .coalesce = false},
                &checkpointer, &injector);
  ASSERT_TRUE(driver.CheckpointNow());
  injector.ArmOnce(FaultSite::kStageStall, 1);

  ASSERT_EQ(driver.IngestBatch(chunks[0]), chunks[0].size());  // A
  driver.Flush();
  // Wait until the worker is parked inside A's apply.
  for (int i = 0; i < 500 && injector.fired(FaultSite::kStageStall) == 0; ++i) {
    std::this_thread::sleep_for(kTick);
  }
  ASSERT_GE(injector.fired(FaultSite::kStageStall), 1u);

  ASSERT_EQ(driver.IngestBatch(chunks[1]), chunks[1].size());  // B -> queued
  driver.Flush();
  ASSERT_EQ(driver.IngestBatch(chunks[2]), chunks[2].size());  // C evicts B
  driver.Flush();
  ASSERT_EQ(driver.IngestBatch(chunks[3]), chunks[3].size());  // D evicts C
  driver.Flush();
  EXPECT_EQ(driver.stats().shed_oldest_evictions, 2u);
  EXPECT_GT(driver.stats().mutations_shed_to_wal, 0u);

  // Recovery releases the parked worker; its in-hand batch is shed too, and
  // the replay applies D (preserved) then B, C, A from the shed log.
  ASSERT_TRUE(driver.Recover());
  driver.PrepQuery();
  EXPECT_TRUE(driver.healthy());

  const EngineStats stats = driver.stats();
  EXPECT_EQ(stats.shed_oldest_evictions, 2u);
  EXPECT_EQ(stats.mutations_dropped, 0u);
  EXPECT_GE(stats.shed_batches_replayed, 3u);  // B, C, and the parked A

  MutableGraph final_graph(full);
  ResetEngine<PageRank> fresh(&final_graph, PageRank{});
  fresh.InitialCompute();
  const auto& values = engine.values();
  const auto& want = fresh.values();
  ASSERT_EQ(values.size(), want.size());
  for (size_t v = 0; v < values.size(); ++v) {
    ASSERT_EQ(values[v], want[v]) << "vertex " << v;
  }
}

// ----- kDegrade: queries serve the last snapshot under overload --------------

TEST(Degrade, ServesSnapshotUnderPressureThenSelfClears) {
  TaskArena::SetNumThreads(1);
  ScopedTempDir ckpt_dir;
  const EdgeList full = GenerateRmat(500, 4000, {.seed = 81});
  StreamSplit split = SplitForStreaming(full, 0.5, 82);
  // Reserve the last held-back edge as the post-recovery nudge batch.
  ASSERT_GT(split.held_back.size(), 8u);
  const Edge nudge_edge = split.held_back.back();
  split.held_back.pop_back();
  const std::vector<MutationBatch> chunks =
      AdditionChunks(split.held_back, (split.held_back.size() + 3) / 4);
  ASSERT_EQ(chunks.size(), 4u);

  MutableGraph graph(split.initial);
  ResetEngine<PageRank> engine(&graph, PageRank{});
  engine.InitialCompute();
  FaultInjector injector;
  Checkpointer<ResetEngine<PageRank>> checkpointer(
      &engine, &graph, {.directory = ckpt_dir.path(), .cadence_batches = 0}, &injector);
  using Driver = StreamDriver<ResetEngine<PageRank>>;
  // Zero thresholds: any queued work while the EWMA is warm counts as
  // pressure, and pressure clears exactly when the queue is empty — the
  // hysteresis itself is deterministic.
  Driver driver(&engine, {.batch_size = 1u << 20,
                          .flush_interval_seconds = 3600.0,
                          .max_pending_batches = 1,
                          .overflow = Driver::OverflowPolicy::kDegrade,
                          .coalesce = false,
                          .governor = {.degrade_pressure_seconds = 0.0,
                                       .recover_pressure_seconds = 0.0}},
                &checkpointer, &injector);
  ASSERT_TRUE(driver.CheckpointNow());

  // Warm the latency EWMA with one normally-applied batch.
  ASSERT_EQ(driver.IngestBatch(chunks[0]), chunks[0].size());
  driver.Flush();
  driver.PrepQuery();
  ASSERT_GT(driver.stats().apply_ewma_seconds, 0.0);

  // Park the worker, then overfill: chunk 2 queues, chunk 3 coalesces in
  // the gutter (the kDegrade overflow path) instead of blocking.
  injector.ArmOnce(FaultSite::kStageStall, 1);
  ASSERT_EQ(driver.IngestBatch(chunks[1]), chunks[1].size());
  driver.Flush();
  for (int i = 0; i < 500 && injector.fired(FaultSite::kStageStall) == 0; ++i) {
    std::this_thread::sleep_for(kTick);
  }
  ASSERT_GE(injector.fired(FaultSite::kStageStall), 1u);
  ASSERT_EQ(driver.IngestBatch(chunks[2]), chunks[2].size());
  driver.Flush();
  ASSERT_EQ(driver.IngestBatch(chunks[3]), chunks[3].size());
  driver.Flush();

  EXPECT_TRUE(driver.degraded());
  EXPECT_EQ(driver.pending_mutations(), chunks[3].size());  // parked in the gutter
  // A degraded query returns immediately with the last consistent snapshot
  // instead of blocking on a barrier the stalled worker can never clear.
  Timer wall;
  EXPECT_TRUE(driver.PrepQuery());
  EXPECT_LT(wall.Seconds(), 0.2);
  EXPECT_GE(driver.stats().degraded_queries, 1u);
  EXPECT_GE(driver.stats().degraded_entries, 1u);

  // Recovery releases the worker; the nudge batch gives the governor an
  // apply with an empty queue behind it, which clears the degraded flag.
  ASSERT_TRUE(driver.Recover());
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
  ResetEngine<PageRank> fresh(&final_graph, PageRank{});
  fresh.InitialCompute();
  const auto& values = engine.values();
  const auto& want = fresh.values();
  ASSERT_EQ(values.size(), want.size());
  for (size_t v = 0; v < values.size(); ++v) {
    ASSERT_EQ(values[v], want[v]) << "vertex " << v;
  }
}

// ----- The acceptance torture test -------------------------------------------

// Poison batches, 4x overload (no pacing against a capacity-2 queue), and
// one injected stage stall, all in one run with watchdog auto-recovery on.
// Requirements: zero crashes, healthy() self-recovers, every rejected batch
// is accounted for in the dead-letter WAL, and the final result is
// bitwise-identical to a from-scratch run over the admitted stream.
TEST(TortureSentinel, PoisonOverloadStallZeroLoss) {
  TaskArena::SetNumThreads(1);
  ScopedTempDir ckpt_dir;
  ScopedTempDir quarantine_dir;
  const EdgeList full = GenerateRmat(1000, 9000, {.seed = 91});
  const StreamSplit split = SplitForStreaming(full, 0.5, 92);
  const std::vector<MutationBatch> valid = AdditionChunks(split.held_back, 48);
  ASSERT_GT(valid.size(), 30u);

  MutableGraph graph(split.initial);
  ResetEngine<PageRank> engine(&graph, PageRank{});
  engine.InitialCompute();
  FaultInjector injector;
  Checkpointer<ResetEngine<PageRank>> checkpointer(
      &engine, &graph, {.directory = ckpt_dir.path(), .cadence_batches = 8}, &injector);
  using Driver = StreamDriver<ResetEngine<PageRank>>;
  Driver driver(&engine, {.batch_size = 1u << 20,
                          .flush_interval_seconds = 3600.0,
                          .max_pending_batches = 2,
                          .overflow = Driver::OverflowPolicy::kShedToWal,
                          .coalesce = false,
                          .quarantine_dir = quarantine_dir.path(),
                          .admission = {.max_vertex_id = 1u << 20},
                          .watchdog_stall_seconds = 0.5},
                &checkpointer, &injector);
  ASSERT_TRUE(driver.CheckpointNow());
  // Arm low: under kShedToWal the unpaced flood sheds most batches before
  // they ever reach the apply stage, and shed batches replay only at the
  // barrier — so on a loaded machine a high hit count may never be reached
  // before the post-loop check. The 2nd apply is still mid-flood.
  injector.ArmOnce(FaultSite::kStageStall, 2);

  const float nan = std::numeric_limits<float>::quiet_NaN();
  MutableGraph ref_graph(split.initial);
  size_t poison_batches = 0;
  size_t poison_mutations = 0;
  uint64_t accepted_total = 0;
  uint64_t offered_total = 0;
  for (size_t i = 0; i < valid.size(); ++i) {
    if (i % 7 == 3) {
      // Alternate poison flavors; all must bounce to quarantine even while
      // the pipeline is overloaded or mid-recovery.
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
    // No pacing: ingestion runs far ahead of the worker, so the queue
    // overflows and kShedToWal sheds durably. During the auto-recovery
    // window IngestBatch may accept only a prefix; the reference applies
    // exactly what was accepted.
    const size_t accepted = driver.IngestBatch(valid[i]);
    accepted_total += accepted;
    offered_total += valid[i].size();
    if (accepted > 0) {
      ref_graph.ApplyBatch(
          MutationBatch(valid[i].begin(), valid[i].begin() + accepted));
    }
    driver.Flush();
  }

  // The stall must have fired and the watchdog must have healed the driver
  // without any help from the test.
  for (int i = 0; i < 500 && injector.fired(FaultSite::kStageStall) == 0; ++i) {
    std::this_thread::sleep_for(kTick);
  }
  EXPECT_GE(injector.fired(FaultSite::kStageStall), 1u);
  ASSERT_TRUE(AwaitHealthy(driver));
  ASSERT_TRUE(BarrierOnHealthy(driver));

  const EngineStats stats = driver.stats();
  EXPECT_TRUE(driver.healthy());
  EXPECT_GE(stats.stalls_detected, 1u);
  EXPECT_GE(stats.watchdog_recoveries, 1u);
  EXPECT_GT(stats.mutations_shed_to_wal, 0u) << "overload never engaged the shed path";

  // Exact accounting: every poison batch is in the dead-letter WAL, every
  // accepted mutation reached the engine, and the only losses are the
  // explicitly-counted recovery-window rejections.
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

  // From-scratch run over the admitted stream: bitwise-identical.
  EXPECT_EQ(graph.num_edges(), ref_graph.num_edges());
  ResetEngine<PageRank> fresh(&ref_graph, PageRank{});
  fresh.InitialCompute();
  const auto& values = engine.values();
  const auto& want = fresh.values();
  ASSERT_EQ(values.size(), want.size());
  for (size_t v = 0; v < values.size(); ++v) {
    ASSERT_EQ(values[v], want[v]) << "vertex " << v;
  }
}

}  // namespace
}  // namespace graphbolt

// Sharded-driver tier: DriverConfig parse/validate matrix, session quota
// enforcement (deterministic lifetime caps, shared tenant state, the
// screen-before-quota ordering), the 4-shard bitwise equivalence against
// the unsharded StreamDriver on the same admitted stream (PageRank, SSSP,
// KickStarter), shard-partition invariants, the FrontierBuilder bitset
// pool, and the adaptive splice-vs-rebuild apply strategy. The concurrency
// cases are part of `ctest -L concurrency` and run under
// GRAPHBOLT_SANITIZE=thread via tools/run_sanitized_tests.sh.
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/algorithms/pagerank.h"
#include "src/algorithms/sssp.h"
#include "src/core/graphbolt_engine.h"
#include "src/fault/checkpoint.h"
#include "src/driver/stream_driver.h"
#include "src/engine/vertex_subset.h"
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

// ----- DriverConfig: flag parsing ------------------------------------------

// Builds an ArgParser carrying the canonical driver surface and parses the
// given flag strings into it.
bool ParseFlags(std::vector<std::string> flags, ArgParser* args) {
  std::vector<char*> argv;
  std::vector<std::string> storage;  // ArgParser copies values out during Parse
  storage.push_back("shard_test");
  for (std::string& f : flags) {
    storage.push_back(std::move(f));
  }
  for (std::string& s : storage) {
    argv.push_back(s.data());
  }
  DriverConfig::RegisterFlags(*args);
  return args->Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(DriverConfigCli, DefaultsRoundTrip) {
  ArgParser args("t");
  ASSERT_TRUE(ParseFlags({}, &args));
  DriverConfig config;
  std::string error;
  ASSERT_TRUE(config.FromCli(args, &error)) << error;
  const DriverConfig defaults;
  EXPECT_EQ(config.shards, defaults.shards);
  EXPECT_EQ(config.batch_size, defaults.batch_size);
  EXPECT_DOUBLE_EQ(config.flush_interval_seconds, defaults.flush_interval_seconds);
  EXPECT_EQ(config.overflow, defaults.overflow);
  EXPECT_EQ(config.coalesce, defaults.coalesce);
  EXPECT_EQ(config.fast_path, defaults.fast_path);
}

TEST(DriverConfigCli, FastPathFlagRoundTrip) {
  ArgParser args("t");
  ASSERT_TRUE(ParseFlags({"--fast-path"}, &args));
  DriverConfig config;
  std::string error;
  ASSERT_TRUE(config.FromCli(args, &error)) << error;
  EXPECT_TRUE(config.fast_path);
  // fast_path has no cross-field constraint: it must validate with and
  // without shards, checkpointing, and the sentinel surface.
  EXPECT_TRUE(config.Validate().empty()) << config.Validate();
  config.shards = 4;
  config.checkpoint_dir = "/tmp/ckpt";
  EXPECT_TRUE(config.Validate().empty()) << config.Validate();
}

TEST(DriverConfigCli, FullSurfaceParses) {
  ArgParser args("t");
  ASSERT_TRUE(ParseFlags({"--shards", "4", "--batch-size", "512", "--flush-ms", "20",
                          "--max-pending-batches", "8", "--overflow", "drop",
                          "--checkpoint-every", "3",
                          "--max-batch-edges", "9000", "--default-quota", "100:200:300",
                          "--tenant-quotas", "alice=5000:20000,bob=0:0:1000"},
                         &args));
  DriverConfig config;
  std::string error;
  ASSERT_TRUE(config.FromCli(args, &error)) << error;
  EXPECT_EQ(config.shards, 4u);
  EXPECT_EQ(config.batch_size, 512u);
  EXPECT_DOUBLE_EQ(config.flush_interval_seconds, 0.02);
  EXPECT_EQ(config.max_pending_batches, 8u);
  EXPECT_EQ(config.overflow, OverflowPolicy::kDropNewest);
  EXPECT_EQ(config.checkpoint_every, 3u);
  EXPECT_EQ(config.admission.max_batch_mutations, 9000u);
  EXPECT_DOUBLE_EQ(config.default_quota.mutations_per_second, 100.0);
  EXPECT_DOUBLE_EQ(config.default_quota.burst_mutations, 200.0);
  EXPECT_EQ(config.default_quota.max_total_mutations, 300u);
  ASSERT_EQ(config.tenant_quotas.size(), 2u);
  EXPECT_DOUBLE_EQ(config.tenant_quotas.at("alice").mutations_per_second, 5000.0);
  EXPECT_DOUBLE_EQ(config.tenant_quotas.at("alice").burst_mutations, 20000.0);
  EXPECT_EQ(config.tenant_quotas.at("bob").max_total_mutations, 1000u);
  EXPECT_DOUBLE_EQ(config.QuotaFor("alice").mutations_per_second, 5000.0);
  EXPECT_DOUBLE_EQ(config.QuotaFor("nobody").mutations_per_second, 100.0);

  // The sentinel flags each move their field off its default.
  const DriverConfig defaults;
  ArgParser sentinel_args("t");
  ASSERT_TRUE(ParseFlags({"--watchdog-ms", "200", "--overflow", "shed-oldest",
                          "--quarantine-dir", "/tmp/cli-q", "--max-batch-edges", "777",
                          "--max-pending-batches", "16"},
                         &sentinel_args));
  DriverConfig sentinel;
  ASSERT_TRUE(sentinel.FromCli(sentinel_args, &error)) << error;
  EXPECT_NE(sentinel.watchdog_stall_seconds, defaults.watchdog_stall_seconds);
  EXPECT_DOUBLE_EQ(sentinel.watchdog_stall_seconds, 0.2);
  EXPECT_EQ(sentinel.overflow, OverflowPolicy::kShedOldest);
  EXPECT_EQ(sentinel.quarantine_dir, "/tmp/cli-q");
  EXPECT_EQ(sentinel.admission.max_batch_mutations, 777u);
  EXPECT_EQ(sentinel.max_pending_batches, 16u);
}

// Each rejection must carry an actionable message naming the flag and what
// it got.
struct RejectCase {
  std::vector<std::string> flags;
  std::string expect_in_error;
};

TEST(DriverConfigCli, RejectMatrix) {
  const std::vector<RejectCase> cases = {
      {{"--shards", "0"}, "--shards"},
      {{"--batch-size", "0"}, "--batch-size"},
      {{"--flush-ms", "0"}, "--flush-ms"},
      {{"--max-pending-batches", "0"}, "--max-pending-batches"},
      {{"--overflow", "sideways"}, "block | drop | shed | shed-oldest | degrade"},
      // "auto" was an alias of degrade-only and is gone.
      {{"--async-mode", "auto"}, "off | degrade-only"},
      {{"--checkpoint-every", "-1"}, "--checkpoint-every"},
      {{"--max-batch-edges", "-5"}, "--max-batch-edges"},
      {{"--watchdog-ms", "-1"}, "--watchdog-ms"},
      {{"--default-quota", "fast"}, "rate"},
      {{"--default-quota", "10:20:30:40"}, "too many fields"},
      {{"--tenant-quotas", "alice"}, "tenant=rate"},
      {{"--tenant-quotas", "=5000"}, "tenant=rate"},
      {{"--tenant-quotas", "alice=abc"}, "alice"},
      // Cross-field: shed needs a durable shed log — sharded or not.
      {{"--overflow", "shed"}, "checkpoint"},
      {{"--shards", "4", "--overflow", "shed"}, "checkpoint"},
  };
  for (const RejectCase& c : cases) {
    ArgParser args("t");
    ASSERT_TRUE(ParseFlags(c.flags, &args));
    DriverConfig config;
    std::string error;
    EXPECT_FALSE(config.FromCli(args, &error)) << "flags should have been rejected";
    EXPECT_NE(error.find(c.expect_in_error), std::string::npos)
        << "error \"" << error << "\" should mention \"" << c.expect_in_error << "\"";
  }
}

TEST(DriverConfigCli, ShedAcceptedWithCheckpointDirUnsharded) {
  ArgParser args("t");
  ASSERT_TRUE(ParseFlags({"--overflow", "shed", "--checkpoint-dir", "/tmp/ckpt"}, &args));
  DriverConfig config;
  std::string error;
  ASSERT_TRUE(config.FromCli(args, &error)) << error;
  EXPECT_EQ(config.overflow, OverflowPolicy::kShedToWal);
}

// The sentinel layer is shard-aware: every watchdog/shed/degrade
// combination that is valid unsharded is valid at shards > 1 too (the
// former "future work" rejections are gone).
TEST(DriverConfigCli, SentinelAcceptMatrixUnderShards) {
  struct AcceptCase {
    std::vector<std::string> flags;
    OverflowPolicy overflow;
    double watchdog_seconds;
  };
  const std::vector<AcceptCase> cases = {
      {{"--shards", "2", "--overflow", "degrade"}, OverflowPolicy::kDegrade, 0.0},
      {{"--shards", "4", "--overflow", "shed-oldest"}, OverflowPolicy::kShedOldest, 0.0},
      {{"--shards", "4", "--overflow", "shed", "--checkpoint-dir", "/tmp/ckpt"},
       OverflowPolicy::kShedToWal, 0.0},
      {{"--shards", "2", "--watchdog-ms", "100"}, OverflowPolicy::kBlock, 0.1},
      {{"--shards", "4", "--overflow", "shed", "--checkpoint-dir", "/tmp/ckpt",
        "--watchdog-ms", "250"},
       OverflowPolicy::kShedToWal, 0.25},
      {{"--shards", "8", "--overflow", "degrade", "--watchdog-ms", "50",
        "--quarantine-dir", "/tmp/q"},
       OverflowPolicy::kDegrade, 0.05},
  };
  for (const AcceptCase& c : cases) {
    ArgParser args("t");
    ASSERT_TRUE(ParseFlags(c.flags, &args));
    DriverConfig config;
    std::string error;
    EXPECT_TRUE(config.FromCli(args, &error))
        << "flags should have been accepted, got: " << error;
    EXPECT_EQ(config.overflow, c.overflow);
    EXPECT_DOUBLE_EQ(config.watchdog_stall_seconds, c.watchdog_seconds);
    EXPECT_TRUE(config.Validate().empty()) << config.Validate();
  }
}

TEST(DriverConfigQuota, ParseQuotaMatrix) {
  TenantQuota quota;
  std::string error;
  ASSERT_TRUE(DriverConfig::ParseQuota("5000", &quota, &error));
  EXPECT_DOUBLE_EQ(quota.mutations_per_second, 5000.0);
  EXPECT_DOUBLE_EQ(quota.burst_mutations, 0.0);
  EXPECT_EQ(quota.max_total_mutations, 0u);
  ASSERT_TRUE(DriverConfig::ParseQuota("5000:20000", &quota, &error));
  EXPECT_DOUBLE_EQ(quota.burst_mutations, 20000.0);
  ASSERT_TRUE(DriverConfig::ParseQuota("0:0:1000000", &quota, &error));
  EXPECT_EQ(quota.max_total_mutations, 1000000u);
  EXPECT_FALSE(DriverConfig::ParseQuota("", &quota, &error));
  EXPECT_FALSE(DriverConfig::ParseQuota("-5", &quota, &error));
  EXPECT_FALSE(DriverConfig::ParseQuota("1:2:3:4", &quota, &error));
  EXPECT_FALSE(DriverConfig::ParseQuota("1:2:x", &quota, &error));
  EXPECT_FALSE(DriverConfig::ParseQuota("1:2:-3", &quota, &error));
}

TEST(DriverConfigOverflow, NamesRoundTrip) {
  for (const char* name : {"block", "drop", "shed", "shed-oldest", "degrade"}) {
    OverflowPolicy policy;
    ASSERT_TRUE(DriverConfig::ParseOverflow(name, &policy)) << name;
    EXPECT_STREQ(DriverConfig::OverflowName(policy), name);
  }
  OverflowPolicy untouched = OverflowPolicy::kBlock;
  EXPECT_FALSE(DriverConfig::ParseOverflow("sideways", &untouched));
  EXPECT_EQ(untouched, OverflowPolicy::kBlock);
}

// ----- Session quotas -------------------------------------------------------

// A small driver fixture around a PageRank engine.
struct SmallService {
  explicit SmallService(DriverConfig config)
      : full(GenerateRmat(400, 3000, {.seed = 51})),
        split(SplitForStreaming(full, 0.5, 52)),
        graph(split.initial),
        engine(&graph, PageRank{}) {
    engine.InitialCompute();
    driver.emplace(&engine, std::move(config));
  }

  EdgeList full;
  StreamSplit split;
  MutableGraph graph;
  GraphBoltEngine<PageRank> engine;
  std::optional<ShardedDriver<GraphBoltEngine<PageRank>>> driver;
};

MutationBatch AddBatch(VertexId base, size_t count) {
  MutationBatch batch;
  for (size_t i = 0; i < count; ++i) {
    batch.push_back(
        EdgeMutation::Add(base + static_cast<VertexId>(i % 97), base + 1 + (i % 53), 1.0f));
  }
  return batch;
}

TEST(SessionQuota, LifetimeCapAdmitsExactlyTheAllowance) {
  TaskArena::SetNumThreads(1);
  DriverConfig config;
  config.shards = 4;
  config.tenant_quotas["greedy"] = TenantQuota{0.0, 0.0, 1000};
  SmallService service(std::move(config));
  auto session = service.driver->OpenSession("greedy");

  // 100 batches of 100: whole-batch-or-nothing against a 1000 cap admits
  // exactly the first 10, deterministically (no wall clock involved).
  size_t accepted_total = 0;
  for (size_t i = 0; i < 100; ++i) {
    accepted_total += session.IngestBatch(AddBatch(static_cast<VertexId>(i), 100));
  }
  EXPECT_EQ(accepted_total, 1000u);
  const TenantStats stats = session.stats();
  EXPECT_EQ(stats.mutations_accepted, 1000u);
  EXPECT_EQ(stats.mutations_quota_rejected, 9000u);
  EXPECT_EQ(stats.batches_quota_rejected, 90u);
  service.driver->PrepQuery();
  const EngineStats driver_stats = service.driver->stats();
  EXPECT_EQ(driver_stats.mutations_quota_rejected, 9000u);
  EXPECT_EQ(driver_stats.mutations_enqueued, 1000u);
}

TEST(SessionQuota, WholeBatchOrNothingNeverPartiallyAdmits) {
  TaskArena::SetNumThreads(1);
  DriverConfig config;
  config.tenant_quotas["capped"] = TenantQuota{0.0, 0.0, 1000};
  SmallService service(std::move(config));
  auto session = service.driver->OpenSession("capped");

  // Batches of 300 against a 1000 cap: 3 admitted (900), then every later
  // batch overshoots the remaining 100 and is rejected intact.
  size_t accepted_total = 0;
  for (size_t i = 0; i < 10; ++i) {
    accepted_total += session.IngestBatch(AddBatch(static_cast<VertexId>(i), 300));
  }
  EXPECT_EQ(accepted_total, 900u);
  EXPECT_EQ(session.stats().mutations_accepted, 900u);
}

TEST(SessionQuota, SessionsOfOneTenantShareTheAllowance) {
  TaskArena::SetNumThreads(1);
  DriverConfig config;
  config.shards = 2;
  config.tenant_quotas["shared"] = TenantQuota{0.0, 0.0, 500};
  SmallService service(std::move(config));
  auto a = service.driver->OpenSession("shared");
  auto b = service.driver->OpenSession("shared");

  EXPECT_EQ(a.IngestBatch(AddBatch(0, 300)), 300u);
  EXPECT_EQ(b.IngestBatch(AddBatch(1, 300)), 0u);  // 300 > remaining 200
  EXPECT_EQ(b.IngestBatch(AddBatch(2, 200)), 200u);
  EXPECT_EQ(a.IngestBatch(AddBatch(3, 1)), 0u);  // cap exhausted for both
  EXPECT_EQ(a.stats().mutations_accepted, 500u);
  EXPECT_EQ(b.stats().mutations_accepted, 500u);  // same shared state
  EXPECT_GE(service.driver->stats().sessions_opened, 2u);
}

TEST(SessionQuota, GreedyTenantCannotStarveOthers) {
  TaskArena::SetNumThreads(1);
  DriverConfig config;
  config.shards = 4;
  config.tenant_quotas["greedy"] = TenantQuota{0.0, 0.0, 200};
  SmallService service(std::move(config));

  auto greedy = service.driver->OpenSession("greedy");
  auto polite = service.driver->OpenSession("polite");  // default (unlimited) quota
  size_t greedy_accepted = 0;
  size_t polite_accepted = 0;
  for (size_t i = 0; i < 20; ++i) {
    greedy_accepted += greedy.IngestBatch(AddBatch(static_cast<VertexId>(i), 100));
    polite_accepted += polite.IngestBatch(AddBatch(static_cast<VertexId>(i + 100), 100));
  }
  EXPECT_EQ(greedy_accepted, 200u);   // capped
  EXPECT_EQ(polite_accepted, 2000u);  // unaffected by the greedy tenant
}

TEST(SessionQuota, BurstBucketBoundsFrontLoading) {
  TaskArena::SetNumThreads(1);
  DriverConfig config;
  // Negligible refill rate: the bucket is effectively just its burst
  // capacity for the duration of the test.
  config.tenant_quotas["bursty"] = TenantQuota{1e-6, 256.0, 0};
  SmallService service(std::move(config));
  auto session = service.driver->OpenSession("bursty");

  EXPECT_EQ(session.IngestBatch(AddBatch(0, 300)), 0u);    // over the bucket
  EXPECT_EQ(session.IngestBatch(AddBatch(1, 200)), 200u);  // fits
  EXPECT_EQ(session.IngestBatch(AddBatch(2, 200)), 0u);    // ~56 tokens left
}

TEST(SessionQuota, QuarantinedBatchDoesNotDebitTheAllowance) {
  TaskArena::SetNumThreads(1);
  ScopedTempDir quarantine_dir("shard_quarantine");
  DriverConfig config;
  config.quarantine_dir = quarantine_dir.path();
  config.tenant_quotas["metered"] = TenantQuota{0.0, 0.0, 100};
  SmallService service(std::move(config));
  auto session = service.driver->OpenSession("metered");

  // The content screen runs before the quota gate: a poison batch parks in
  // the dead-letter WAL without consuming allowance.
  MutationBatch poison;
  for (VertexId v = 0; v < 50; ++v) {
    poison.push_back(EdgeMutation::Add(v, v + 1, std::numeric_limits<float>::quiet_NaN()));
  }
  EXPECT_EQ(session.IngestBatch(poison), 0u);
  EXPECT_EQ(service.driver->quarantined_batches(), 1u);
  TenantStats stats = session.stats();
  EXPECT_EQ(stats.mutations_quarantined, 50u);
  EXPECT_EQ(stats.mutations_accepted, 0u);
  EXPECT_EQ(stats.mutations_quota_rejected, 0u);

  // The full 100-mutation allowance is still there.
  EXPECT_EQ(session.IngestBatch(AddBatch(0, 100)), 100u);
  EXPECT_EQ(session.stats().mutations_accepted, 100u);
}

// ----- Sharded vs. unsharded equivalence ------------------------------------

// Pre-generates batches against an evolving shadow graph (same idiom as
// driver_test.cc) so every run sees an identical stream.
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

// Streams the batches through a 4-shard driver from concurrent producer
// sessions, recording the promotion order via the apply observer, then
// replays exactly that admitted stream through an unsharded StreamDriver
// wrapped around `reference`. With one pool thread both engines are
// deterministic, so the snapshots must agree BITWISE — the acceptance
// criterion of the sharded barrier: one BSP-consistent snapshot,
// indistinguishable from the single-lane pipeline on the same stream.
template <StreamingEngine Engine>
void ExpectShardedMatchesUnsharded(Engine& engine, Engine& reference,
                                   const std::vector<MutationBatch>& batches) {
  engine.InitialCompute();
  reference.InitialCompute();

  std::vector<MutationBatch> admitted;  // global apply order
  size_t offered = 0;
  {
    DriverConfig config;
    config.shards = 4;
    config.batch_size = 64;  // small enough that lanes flush mid-stream
    config.flush_interval_seconds = 3600.0;
    config.coalesce = false;
    ShardedDriver<Engine> driver(&engine, config);
    // Runs under the engine mutex, so the recording needs no extra lock.
    driver.set_apply_observer(
        [&](size_t, const MutationBatch& batch) { admitted.push_back(batch); });

    constexpr size_t kProducers = 3;
    std::vector<std::thread> producers;
    for (size_t p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        auto session = driver.OpenSession("tenant-" + std::to_string(p));
        for (size_t i = p; i < batches.size(); i += kProducers) {
          EXPECT_EQ(session.IngestBatch(batches[i]), batches[i].size());
        }
      });
    }
    for (std::thread& t : producers) {
      t.join();
    }
    for (const MutationBatch& batch : batches) {
      offered += batch.size();
    }
    driver.PrepQuery();

    const EngineStats stats = driver.stats();
    EXPECT_EQ(stats.mutations_enqueued, offered);
    EXPECT_EQ(stats.mutations_dropped, 0u);
    EXPECT_EQ(stats.shard_lanes, 4u);
    driver.Stop();
  }
  size_t admitted_total = 0;
  for (const MutationBatch& batch : admitted) {
    admitted_total += batch.size();
  }
  ASSERT_EQ(admitted_total, offered);  // nothing lost, nothing duplicated

  // The unsharded replay: same admitted stream, same flush boundaries.
  StreamDriver<Engine> replay(&reference, {.batch_size = 1u << 20,
                                           .flush_interval_seconds = 3600.0,
                                           .coalesce = false});
  for (const MutationBatch& batch : admitted) {
    ASSERT_EQ(replay.IngestBatch(batch), batch.size());
    replay.Flush();
  }
  const auto& values = replay.values();
  ASSERT_EQ(values.size(), engine.values().size());
  for (size_t v = 0; v < values.size(); ++v) {
    ASSERT_EQ(values[v], engine.values()[v]) << "vertex " << v;
  }
}

TEST(ShardedEquivalence, PageRankBitwiseIdenticalToUnshardedDriver) {
  TaskArena::SetNumThreads(1);  // deterministic summation order
  EdgeList full = GenerateRmat(1500, 12000, {.seed = 11});
  StreamSplit split = SplitForStreaming(full, 0.5, 12);
  std::vector<MutationBatch> batches = MakeBatches(split, 24, 80, 13);

  MutableGraph g_sharded(split.initial);
  MutableGraph g_ref(split.initial);
  GraphBoltEngine<PageRank> engine(&g_sharded, PageRank{});
  GraphBoltEngine<PageRank> reference(&g_ref, PageRank{});
  ExpectShardedMatchesUnsharded(engine, reference, batches);
}

TEST(ShardedEquivalence, SsspBitwiseIdenticalToUnshardedDriver) {
  TaskArena::SetNumThreads(1);
  EdgeList full = GenerateRmat(1200, 9000, {.seed = 21, .assign_random_weights = true});
  StreamSplit split = SplitForStreaming(full, 0.5, 22);
  std::vector<MutationBatch> batches = MakeBatches(split, 22, 60, 23);

  MutableGraph g_sharded(split.initial);
  MutableGraph g_ref(split.initial);
  const GraphBoltEngine<Sssp>::Options options{.max_iterations = 128, .run_to_convergence = true};
  GraphBoltEngine<Sssp> engine(&g_sharded, Sssp(0), options);
  GraphBoltEngine<Sssp> reference(&g_ref, Sssp(0), options);
  ExpectShardedMatchesUnsharded(engine, reference, batches);
}

TEST(ShardedEquivalence, KickStarterBitwiseIdenticalToUnshardedDriver) {
  TaskArena::SetNumThreads(1);
  EdgeList full = GenerateRmat(1000, 8000, {.seed = 31, .assign_random_weights = true});
  StreamSplit split = SplitForStreaming(full, 0.5, 32);
  std::vector<MutationBatch> batches = MakeBatches(split, 20, 50, 33);

  MutableGraph g_sharded(split.initial);
  MutableGraph g_ref(split.initial);
  KickStarterEngine<KsSsspTraits> engine(&g_sharded, KsSsspTraits(0));
  KickStarterEngine<KsSsspTraits> reference(&g_ref, KsSsspTraits(0));
  ExpectShardedMatchesUnsharded(engine, reference, batches);
}

// ----- Shard partition invariants -------------------------------------------

using EdgeTuple = std::tuple<VertexId, VertexId, Weight>;

std::vector<EdgeTuple> SortedEdges(const EdgeList& list) {
  std::vector<EdgeTuple> edges;
  edges.reserve(list.edges().size());
  for (const Edge& e : list.edges()) {
    edges.emplace_back(e.src, e.dst, e.weight);
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

// Streaming an adds-only load into an initially empty engine graph: every
// promotion fuses at most one head batch per lane, in lane order, so its
// source shards never decrease, and the union of the promoted batches is
// exactly the global graph.
TEST(ShardPartitions, LanesPartitionTheEdgeSetBySourceShard) {
  TaskArena::SetNumThreads(1);
  constexpr size_t kShards = 4;
  EdgeList full = GenerateRmat(800, 6000, {.seed = 71, .assign_random_weights = true});
  MutableGraph graph(EdgeList(full.num_vertices(), {}));
  GraphBoltEngine<PageRank> engine(&graph, PageRank{});
  engine.InitialCompute();

  DriverConfig config;
  config.shards = kShards;
  config.batch_size = 256;
  config.flush_interval_seconds = 3600.0;
  config.coalesce = false;
  ShardedDriver<GraphBoltEngine<PageRank>> driver(&engine, config);
  std::vector<EdgeTuple> unioned;
  driver.set_apply_observer([&](size_t lane, const MutationBatch& promoted) {
    EXPECT_LT(lane, kShards) << "batch promoted outside the lanes";
    size_t shard = 0;
    for (const EdgeMutation& m : promoted) {
      EXPECT_GE(static_cast<size_t>(m.src) % kShards, shard)
          << "edge (" << m.src << ", " << m.dst << ") out of lane order";
      shard = static_cast<size_t>(m.src) % kShards;
      unioned.emplace_back(m.src, m.dst, m.weight);
    }
  });
  auto session = driver.OpenSession("loader");
  MutationBatch batch;
  for (const Edge& e : full.edges()) {
    batch.push_back(EdgeMutation::Add(e.src, e.dst, e.weight));
    if (batch.size() == 500) {
      EXPECT_EQ(session.IngestBatch(batch), batch.size());
      batch.clear();
    }
  }
  if (!batch.empty()) {
    EXPECT_EQ(session.IngestBatch(batch), batch.size());
  }
  driver.PrepQuery();
  driver.Stop();

  std::sort(unioned.begin(), unioned.end());
  EXPECT_EQ(unioned, SortedEdges(graph.ToEdgeList()));
}

// One promotion fuses every lane's queue head. While the first promotion
// holds the engine lock inside the observer, lanes 1-3 each flush one batch;
// the next promotion takes all three heads at once, concatenated in lane
// order: one sequence number, one WAL record, one refinement.
TEST(ShardPartitions, PromotionFusesEveryQueuedLaneHead) {
  TaskArena::SetNumThreads(1);
  constexpr size_t kShards = 4;
  ScopedTempDir ckpt_dir("shard_fusion");
  EdgeList full = GenerateRmat(400, 3000, {.seed = 81});
  MutableGraph graph(full);
  GraphBoltEngine<PageRank> engine(&graph, PageRank{});
  engine.InitialCompute();
  Checkpointer<GraphBoltEngine<PageRank>> checkpointer(
      &engine, &graph, {.directory = ckpt_dir.path(), .cadence_batches = 0});

  DriverConfig config;
  config.shards = kShards;
  config.batch_size = 1u << 20;
  config.flush_interval_seconds = 3600.0;
  config.coalesce = false;
  ShardedDriver<GraphBoltEngine<PageRank>> driver(&engine, config, &checkpointer);
  std::promise<void> entered;
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::vector<std::vector<EdgeTuple>> observed;  // under the engine lock
  driver.set_apply_observer([&](size_t, const MutationBatch& promoted) {
    std::vector<EdgeTuple> edges;
    for (const EdgeMutation& m : promoted) {
      edges.emplace_back(m.src, m.dst, m.weight);
    }
    observed.push_back(std::move(edges));
    if (observed.size() == 1) {
      entered.set_value();
      released.wait();
    }
  });

  // Lane l's batch: three additions from sources in shard l.
  std::vector<MutationBatch> lane_batches(kShards);
  std::vector<EdgeTuple> fused_want;
  for (size_t lane = 0; lane < kShards; ++lane) {
    for (VertexId k = 0; k < 3; ++k) {
      const VertexId src = static_cast<VertexId>(lane) + kShards * (10 * k + 1);
      const VertexId dst = (src * 7 + 3) % full.num_vertices();
      lane_batches[lane].push_back(EdgeMutation::Add(src, dst, 1.0));
      if (lane > 0) {
        fused_want.emplace_back(src, dst, 1.0);
      }
    }
  }
  ASSERT_EQ(driver.IngestBatch(lane_batches[0]), 3u);
  driver.Flush();
  entered.get_future().wait();  // lane 0's promotion holds the engine lock
  for (size_t lane = 1; lane < kShards; ++lane) {
    ASSERT_EQ(driver.IngestBatch(lane_batches[lane]), 3u);
    driver.Flush();
  }
  release.set_value();
  driver.PrepQuery();

  ASSERT_EQ(observed.size(), 2u) << "lane heads promoted one by one";
  EXPECT_EQ(observed[1], fused_want);
  const EngineStats stats = driver.stats();
  EXPECT_EQ(stats.batches_applied, 2u);
  EXPECT_EQ(stats.shard_batches_staged, kShards);
  EXPECT_EQ(stats.wal_appends, 2u);
  EXPECT_EQ(driver.applied_seq(), 2u);
}

// ----- FrontierBuilder bitset pool ------------------------------------------

TEST(FrontierBitsetPool, BuildersReuseParkedBitsets) {
  FrontierBitsetPool& pool = FrontierBitsetPool::Instance();
  { FrontierBuilder warm(512); }  // parks one bitset on destruction
  const uint64_t reuses_before = pool.reuses();
  const uint64_t allocations_before = pool.allocations();
  { FrontierBuilder same(512); }
  { FrontierBuilder resized(1024); }  // reuse must survive a universe change
  EXPECT_EQ(pool.reuses(), reuses_before + 2);
  EXPECT_EQ(pool.allocations(), allocations_before);
}

TEST(FrontierBitsetPool, ReusedBuilderStartsClear) {
  {
    FrontierBuilder first(256);
    first.Claim(7);
    first.Claim(200);
  }
  FrontierBuilder second(256);  // from the pool
  EXPECT_FALSE(second.Contains(7));
  EXPECT_FALSE(second.Contains(200));
  EXPECT_TRUE(second.Claim(7));  // first claim wins — must not be pre-claimed
}

// ----- Adaptive splice-vs-rebuild apply -------------------------------------

TEST(AdaptiveApply, ForcedStrategiesProduceIdenticalGraphs) {
  EdgeList full = GenerateRmat(600, 5000, {.seed = 81, .assign_random_weights = true});
  StreamSplit split = SplitForStreaming(full, 0.5, 82);
  MutableGraph shadow(split.initial);
  UpdateStream stream(split.held_back, 83);
  const MutationBatch batch = stream.NextBatch(shadow, {.size = 800, .add_fraction = 0.5});

  MutableGraph splice(split.initial);
  splice.SetApplyStrategy(MutableGraph::ApplyStrategy::kSplice);
  MutableGraph rebuild(split.initial);
  rebuild.SetApplyStrategy(MutableGraph::ApplyStrategy::kRebuild);
  splice.ApplyBatch(batch);
  rebuild.ApplyBatch(batch);

  EXPECT_EQ(splice.adaptive_rebuilds(), 0u);
  EXPECT_EQ(rebuild.adaptive_rebuilds(), 1u);
  EXPECT_EQ(splice.num_edges(), rebuild.num_edges());
  EXPECT_EQ(SortedEdges(splice.ToEdgeList()), SortedEdges(rebuild.ToEdgeList()));
}

TEST(AdaptiveApply, AutoRebuildsOnlyAboveTheImpactFloor) {
  // Small batch on a small graph: far below kMinRebuildImpact, kAuto must
  // splice.
  EdgeList small = GenerateRmat(400, 3000, {.seed = 91});
  MutableGraph below(small);
  below.ApplyBatch(MutationBatch{EdgeMutation::Add(1, 2, 1.0f)});
  EXPECT_EQ(below.adaptive_rebuilds(), 0u);

  // A batch whose normalized impact clears both the absolute floor and the
  // relative bar (it dwarfs the initial edge set): kAuto must rebuild.
  MutableGraph above(small);
  MutationBatch huge;
  constexpr VertexId kSide = 200;
  huge.reserve(static_cast<size_t>(kSide) * kSide);
  for (VertexId s = 0; s < kSide; ++s) {
    for (VertexId d = 0; d < kSide; ++d) {
      if (s != d) {
        huge.push_back(EdgeMutation::Add(1000 + s, 1000 + d, 1.0f));
      }
    }
  }
  ASSERT_GE(huge.size(), MutableGraph::kMinRebuildImpact);
  above.ApplyBatch(huge);
  EXPECT_EQ(above.adaptive_rebuilds(), 1u);

  // The rebuild path must agree with a forced splice of the same batch.
  MutableGraph check(small);
  check.SetApplyStrategy(MutableGraph::ApplyStrategy::kSplice);
  check.ApplyBatch(huge);
  EXPECT_EQ(SortedEdges(above.ToEdgeList()), SortedEdges(check.ToEdgeList()));
}

}  // namespace
}  // namespace graphbolt

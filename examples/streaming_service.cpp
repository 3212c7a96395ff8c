// A live graph service: producer threads feed edge arrivals into a
// ShardedDriver while a query thread reads fresh PageRank snapshots — the
// deployment shape the paper motivates (§1: "perform real-time analytics
// on... continuously evolving graphs"), with the driver supplying the
// multi-lane ingestion pipeline the batch engines themselves leave to the
// caller.
//
// Each producer opens its own Session (driver.OpenSession("producer-P")) —
// the tenant handle the redesigned API routes all ingestion through — and
// streams a slice of the arrivals. The driver routes each mutation to the
// lane owning its source shard (shard_of(v) = v % N), lane workers promote
// their batches into the engine one at a time, and every QuerySnapshot() is
// an exact BSP snapshot (identical to recomputing from scratch on the graph
// at that instant). The example verifies exactly that at the end: drained driver
// values vs. a from-scratch engine on the final graph.
//
// Configuration is one DriverConfig: DriverConfig::RegisterFlags puts the
// canonical driver surface (--shards, --batch-size, --overflow,
// --checkpoint-dir, --quarantine-dir, --default-quota, ...) on the parser,
// FromCli reads it back with actionable errors, FromEnv applies GRAPHBOLT_*
// overrides on top.
//
// With --checkpoint-dir the driver journals every promoted batch through
// the global checkpointer (WAL + cadence snapshots); after the stream
// drains, the example cold-recovers a second engine purely from disk and
// checks it agrees with the live one — the restart story a real service
// needs, deliberately run through a one-lane driver to show that any lane
// count restores any other's checkpoints.
//
// --quarantine-dir arms admission screening: the example offers one poison
// batch (NaN weights) through a session to show it being parked in the
// dead-letter WAL instead of corrupting the engine, without debiting the
// tenant's quota.
//
// Run:  ./example_streaming_service [--producers P] [--queries Q]
//                                   [--shards N] [--batch-size B]
//                                   [--checkpoint-dir D] [--quarantine-dir Q]
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "src/graphbolt.h"
#include "src/util/cli.h"

int main(int argc, char** argv) {
  using namespace graphbolt;

  ArgParser args("Streaming service: concurrent sessions through ShardedDriver");
  args.AddInt("producers", 3, "concurrent ingest threads (one session each)");
  args.AddInt("queries", 4, "mid-stream snapshot queries");
  DriverConfig::RegisterFlags(args);
  if (!args.Parse(argc, argv)) {
    return 1;
  }
  if (args.GetInt("producers") < 1) {
    std::printf("--producers must be >= 1\n");
    return 1;
  }
  DriverConfig config;
  std::string config_error;
  if (!config.FromCli(args, &config_error) || !config.FromEnv(&config_error)) {
    std::printf("driver config: %s\n", config_error.c_str());
    return 1;
  }
  const size_t num_producers = static_cast<size_t>(args.GetInt("producers"));

  EdgeList full = GenerateRmat(15000, 180000, {.seed = 7});
  StreamSplit split = SplitForStreaming(full, 0.5, 8);
  std::printf("initial graph: %u vertices, %llu edges; %zu arrivals to stream "
              "across %zu shard lanes\n",
              split.initial.num_vertices(),
              static_cast<unsigned long long>(MutableGraph(split.initial).num_edges()),
              split.held_back.size(), config.shards);

  MutableGraph graph(split.initial);
  GraphBoltEngine<PageRank> engine(&graph, PageRank{});
  engine.InitialCompute();
  std::printf("initial compute: %.2f ms\n", engine.stats().seconds * 1e3);

  std::unique_ptr<Checkpointer<GraphBoltEngine<PageRank>>> checkpointer;
  if (!config.checkpoint_dir.empty()) {
    checkpointer = std::make_unique<Checkpointer<GraphBoltEngine<PageRank>>>(
        &engine, &graph,
        Checkpointer<GraphBoltEngine<PageRank>>::Options{
            .directory = config.checkpoint_dir, .cadence_batches = config.checkpoint_every});
  }

  Timer wall;
  {
    ShardedDriver<GraphBoltEngine<PageRank>> driver(&engine, config, checkpointer.get());
    if (checkpointer) {
      driver.CheckpointNow();  // recoverable from the initial snapshot onward
    }

    // Producers: each thread opens its own session and streams a slice of
    // the arrivals. Sessions of distinct tenants are independent quota
    // domains; here every tenant runs under config.default_quota
    // (unlimited unless --default-quota was given).
    std::vector<std::vector<Edge>> slices(num_producers);
    for (size_t i = 0; i < split.held_back.size(); ++i) {
      slices[i % num_producers].push_back(split.held_back[i]);
    }
    std::atomic<size_t> ingested{0};
    std::vector<std::thread> producers;
    for (size_t p = 0; p < num_producers; ++p) {
      producers.emplace_back([&, p] {
        auto session = driver.OpenSession("producer-" + std::to_string(p));
        for (const Edge& e : slices[p]) {
          // IngestFast == Ingest unless --fast-path (or GRAPHBOLT_FAST_PATH=1)
          // armed the single-update path; then arrivals the engine proves
          // safe splice in place without waiting for a barrier.
          session.IngestFast(EdgeMutation::Add(e.src, e.dst, e.weight));
          ingested.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }

    // Query thread: live snapshots while ingestion runs. Each is a
    // consistent BSP state of some prefix of the admitted stream (the
    // two-phase barrier flushes and drains every lane).
    for (int q = 0; q < args.GetInt("queries"); ++q) {
      Timer latency;
      const std::vector<double> ranks = driver.QuerySnapshot();
      double top = 0.0;
      VertexId argtop = 0;
      for (VertexId v = 0; v < ranks.size(); ++v) {
        if (ranks[v] > top) {
          top = ranks[v];
          argtop = v;
        }
      }
      std::printf("query %d: %6zu/%zu arrivals ingested, top vertex %5u (rank %.3f), "
                  "barrier %.2f ms\n",
                  q + 1, ingested.load(), split.held_back.size(), argtop, top,
                  latency.Seconds() * 1e3);
    }

    for (std::thread& t : producers) {
      t.join();
    }

    // Poison-batch demo: NaN weights never reach the engine — admission
    // screens the batch before the quota gate and parks it bitwise in the
    // dead-letter WAL, where ReplayQuarantine() could repair it later. The
    // exactness checks below still passing is the point.
    if (!config.quarantine_dir.empty()) {
      auto poisoner = driver.OpenSession("poisoner");
      MutationBatch poison;
      for (VertexId v = 0; v < 8; ++v) {
        poison.push_back(EdgeMutation::Add(v, v + 1, std::numeric_limits<float>::quiet_NaN()));
      }
      const size_t accepted = poisoner.IngestBatch(poison);
      std::printf("poison batch (8 NaN weights): %zu accepted, parked in %s; "
                  "tenant 'poisoner' quarantined count %llu\n",
                  accepted, config.quarantine_dir.c_str(),
                  static_cast<unsigned long long>(poisoner.stats().mutations_quarantined));
    }
    driver.PrepQuery();

    const EngineStats stats = driver.stats();
    std::printf("\ndrained after %.2f ms wall: %llu batches applied, "
                "%llu mutations ingested (%llu coalesced, %llu dropped)\n",
                wall.Seconds() * 1e3, static_cast<unsigned long long>(stats.batches_applied),
                static_cast<unsigned long long>(stats.mutations_enqueued),
                static_cast<unsigned long long>(stats.mutations_coalesced),
                static_cast<unsigned long long>(stats.mutations_dropped));
    // The operator's dashboard line: lanes, staging, tenancy, and admission
    // health in one place (all mirrored into EngineStats by the driver).
    std::printf("shards: %llu lanes, %llu batches staged, "
                "%llu cross-shard mutations, %llu sessions, "
                "%llu mutations quota-rejected, %llu batches/%llu mutations quarantined\n",
                static_cast<unsigned long long>(stats.shard_lanes),
                static_cast<unsigned long long>(stats.shard_batches_staged),
                static_cast<unsigned long long>(stats.cross_shard_mutations),
                static_cast<unsigned long long>(stats.sessions_opened),
                static_cast<unsigned long long>(stats.mutations_quota_rejected),
                static_cast<unsigned long long>(stats.batches_quarantined),
                static_cast<unsigned long long>(stats.mutations_quarantined));
    // Serving-latency half of the dashboard: single-update fast-path
    // counters (nonzero only when --fast-path / GRAPHBOLT_FAST_PATH=1 is
    // set — PageRank proves only graph no-ops safe, so real arrivals show
    // up as escalations here, not safe applies).
    std::printf("fast path: %llu safe applied in place, %llu escalated to refinement, "
                "%llu epoch flips\n",
                static_cast<unsigned long long>(stats.fastpath_safe_applied),
                static_cast<unsigned long long>(stats.fastpath_unsafe_escalated),
                static_cast<unsigned long long>(stats.fastpath_epoch_flips));
    // The overload/stall half of the dashboard: the full sentinel layer
    // (shed policies, degrade governor, stall watchdog) runs per-lane under
    // any --shards count, so a service watches one line either way.
    std::printf("sentinel: %llu mutations shed-to-wal (%llu batches replayed), "
                "%llu shed-oldest evictions, %llu degraded entries / %llu degraded "
                "queries, %llu stalls / %llu auto-recoveries\n",
                static_cast<unsigned long long>(stats.mutations_shed_to_wal),
                static_cast<unsigned long long>(stats.shed_batches_replayed),
                static_cast<unsigned long long>(stats.shed_oldest_evictions),
                static_cast<unsigned long long>(stats.degraded_entries),
                static_cast<unsigned long long>(stats.degraded_queries),
                static_cast<unsigned long long>(stats.stalls_detected),
                static_cast<unsigned long long>(stats.watchdog_recoveries));
    // Async-fresh serving (--async-mode degrade-only with --overflow
    // degrade): how often the engine flipped into the delta-accumulative
    // tier, how many queries were served eventually-consistent values, and
    // the convergence residual — the freshness bound — they were served at.
    if (config.async_mode != AsyncModePolicy::kOff) {
      std::printf("async: %llu entries / %llu reconciles, %llu async applies, %llu steps, "
                  "%llu async-fresh queries, residual %.3e\n",
                  static_cast<unsigned long long>(stats.async_entries),
                  static_cast<unsigned long long>(stats.async_reconciles),
                  static_cast<unsigned long long>(stats.async_applies),
                  static_cast<unsigned long long>(stats.async_steps),
                  static_cast<unsigned long long>(stats.async_fresh_queries),
                  stats.async_residual);
    }
    if (stats.mutations_enqueued != split.held_back.size() || stats.mutations_dropped != 0) {
      std::printf("FAIL: lost mutations\n");
      return 1;
    }
    if (!config.quarantine_dir.empty() && stats.batches_quarantined != 1) {
      std::printf("FAIL: poison batch was not quarantined\n");
      return 1;
    }
  }  // driver destructor: Stop() — idempotent after the explicit drain

  // The BSP exactness check: the incrementally maintained result must match
  // a from-scratch run on the final graph (small fp headroom — the two
  // paths sum rank contributions in different orders).
  MutableGraph final_graph(full);
  LigraEngine<PageRank> fresh(&final_graph, PageRank{});
  fresh.InitialCompute();
  if (graph.num_edges() != final_graph.num_edges()) {
    std::printf("FAIL: final graph has %llu edges, expected %llu\n",
                static_cast<unsigned long long>(graph.num_edges()),
                static_cast<unsigned long long>(final_graph.num_edges()));
    return 1;
  }
  double gap = 0.0;
  for (VertexId v = 0; v < final_graph.num_vertices(); ++v) {
    gap = std::max(gap, std::fabs(engine.values()[v] - fresh.values()[v]));
  }
  std::printf("final max gap vs from-scratch recompute: %.2e\n", gap);
  if (gap >= 1e-7) {
    return 1;
  }

  // Restart story: a brand-new process (fresh graph + engine) recovers the
  // service state purely from the checkpoint directory. Recovery goes
  // through a one-lane driver on purpose — every lane count journals
  // through the same global checkpointer protocol, so any of them restores
  // the others' checkpoints. The WAL tail is
  // replayed with the multi-threaded engine, so agreement is to fp
  // headroom rather than bitwise (parallel reduction order differs).
  if (checkpointer) {
    MutableGraph cold_graph;
    GraphBoltEngine<PageRank> cold(&cold_graph, PageRank{});
    Checkpointer<GraphBoltEngine<PageRank>> restorer(
        &cold, &cold_graph,
        {.directory = config.checkpoint_dir, .cadence_batches = config.checkpoint_every});
    StreamDriver<GraphBoltEngine<PageRank>> cold_driver(&cold, {}, &restorer);
    Timer recovery;
    if (!cold_driver.Recover()) {
      std::printf("FAIL: recovery found no usable checkpoint in %s\n",
                  config.checkpoint_dir.c_str());
      return 1;
    }
    cold_driver.Stop();
    if (cold_graph.num_edges() != graph.num_edges()) {
      std::printf("FAIL: recovered graph has %llu edges, live has %llu\n",
                  static_cast<unsigned long long>(cold_graph.num_edges()),
                  static_cast<unsigned long long>(graph.num_edges()));
      return 1;
    }
    double recovery_gap = 0.0;
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      recovery_gap = std::max(recovery_gap, std::fabs(cold.values()[v] - engine.values()[v]));
    }
    std::printf("cold recovery: %llu batches replayed in %.2f ms, max gap vs live %.2e\n",
                static_cast<unsigned long long>(cold_driver.stats().batches_replayed),
                recovery.Seconds() * 1e3, recovery_gap);
    if (recovery_gap >= 1e-7) {
      return 1;
    }
  }
  return 0;
}

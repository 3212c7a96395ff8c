// Driver ingestion throughput: batch-size sweep on the single-lane driver,
// a shard-count sweep over its lanes, and the single-update serving-latency
// sweep (fast path vs. batch-size-1
// flush-to-barrier).
//
// Not a paper table: the paper's harness hand-feeds pre-built batches, so
// this measures what the driver subsystem adds — the rate at which
// individual edge mutations can be pushed through Ingest() while
// background workers keep the engine refined, and the price of the final
// PrepQuery() drain. The batch-size sweep exposes the pipeline trade-off:
// small batches keep the snapshot fresh but pay per-batch refinement
// overhead; large batches amortize it and raise throughput. The shard
// sweep (1/2/4/8 lanes, one producer session per lane) measures what lane
// parallelism buys when ingestion is concurrent but promotion still
// serializes on the one BSP engine; it emits BENCH_shard_scaling.json for
// tools/bench_diff.py to compare against the committed trajectory. The
// latency sweep streams provably-safe single-edge mutations through
// IngestFast (splice in place, no barrier) and through the batched path at
// batch size 1 (Ingest + Flush + PrepQuery), reporting p50/p99
// update→queryable latency per algorithm; it emits
// BENCH_fastpath_latency.json for the same trajectory guard. The async
// freshness sweep (INTERNALS §12) floods a kDegrade driver past its
// governor and compares what degraded queries observe with the async
// delta tier off (frozen BSP snapshots) vs engaged (continuously-updating
// eventually-consistent values); it emits BENCH_async_freshness.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "src/algorithms/pagerank.h"
#include "src/algorithms/sssp.h"
#include "src/core/graphbolt_engine.h"
#include "src/driver/stream_driver.h"
#include "src/kickstarter/kickstarter_engine.h"
#include "src/shard/driver_config.h"
#include "src/util/timer.h"

namespace graphbolt {
namespace {

constexpr size_t kBatchSizes[] = {64, 256, 1024, 4096};
constexpr size_t kShardCounts[] = {1, 2, 4, 8};
constexpr size_t kShardSweepBatch = 1024;

struct Row {
  double ingest_rate = 0.0;     // mutations/sec, first Ingest -> last Ingest
  double end_to_end_rate = 0.0; // mutations/sec including the final drain
  double drain_seconds = 0.0;   // the PrepQuery() barrier after ingestion
  uint64_t batches = 0;
  double avg_flush_latency_ms = 0.0;  // flush -> applied, per batch
  double queue_wait_seconds = 0.0;    // backpressure felt by the producers
  uint64_t cross_shard = 0;
};

// Streams the held-back additions through a driver built from `config`,
// from `producers` concurrent sessions that each ingest one slice.
Row RunOnce(const StreamSplit& split, const DriverConfig& config, size_t producers) {
  MutableGraph graph(split.initial);
  GraphBoltEngine<PageRank> engine(&graph, PageRank(0.85, kBenchTolerance));
  engine.InitialCompute();

  Row row;
  {
    StreamDriver<GraphBoltEngine<PageRank>> driver(&engine, config);
    std::vector<std::vector<Edge>> slices(producers);
    for (size_t i = 0; i < split.held_back.size(); ++i) {
      slices[i % producers].push_back(split.held_back[i]);
    }
    Timer total;
    Timer ingest;
    std::vector<std::thread> threads;
    for (size_t p = 0; p < producers; ++p) {
      threads.emplace_back([&, p] {
        auto session = driver.OpenSession("bench-" + std::to_string(p));
        for (const Edge& e : slices[p]) {
          session.Ingest(EdgeMutation::Add(e.src, e.dst, e.weight));
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    const double ingest_seconds = ingest.Seconds();
    Timer drain;
    driver.PrepQuery();
    row.drain_seconds = drain.Seconds();
    const double total_seconds = total.Seconds();

    const double n = static_cast<double>(split.held_back.size());
    row.ingest_rate = n / ingest_seconds;
    row.end_to_end_rate = n / total_seconds;
    const EngineStats stats = driver.stats();
    row.batches = stats.batches_applied;
    row.avg_flush_latency_ms =
        stats.batches_applied == 0
            ? 0.0
            : stats.flush_latency_seconds / static_cast<double>(stats.batches_applied) * 1e3;
    row.queue_wait_seconds = stats.queue_wait_seconds;
    row.cross_shard = stats.cross_shard_mutations;
  }
  return row;
}

// ----- Single-update serving latency (fast path vs. batch size 1) -----------

struct LatencyRow {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double mean_us = 0.0;
  uint64_t safe_applied = 0;
  uint64_t escalated = 0;
};

double PercentileUs(std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) {
    return 0.0;
  }
  const size_t idx = static_cast<size_t>(p * static_cast<double>(sorted_us.size() - 1));
  return sorted_us[idx];
}

// Measures update→queryable latency for `updates` single mutations drawn
// round-robin from `safe_updates` (crafted so the engine classifies every
// one of them safe). `fast` routes through IngestFast — the splice itself
// is the queryability point, no barrier. Otherwise each mutation pays the
// full batched pipeline at batch size 1: Ingest (which flushes the
// one-mutation gutter) + PrepQuery (the barrier that makes it queryable).
template <StreamingEngine Engine>
LatencyRow MeasureLatency(Engine& engine, const std::vector<EdgeMutation>& safe_updates,
                          size_t updates, bool fast) {
  engine.InitialCompute();
  StreamDriver<Engine> driver(&engine, {.batch_size = fast ? (1u << 20) : 1,
                                        .flush_interval_seconds = 3600.0,
                                        .fast_path = fast});
  // Untimed warmup: fault in the claim stripes, the gutter, and the pool
  // threads so the timed distribution measures the steady state, not
  // first-touch costs.
  constexpr size_t kWarmup = 256;
  for (size_t i = 0; i < kWarmup; ++i) {
    const EdgeMutation& m = safe_updates[i % safe_updates.size()];
    if (fast) {
      driver.IngestFast(m);
    } else {
      driver.Ingest(m);
      driver.PrepQuery();
    }
  }
  // Three timed repetitions, keeping the one with the lowest p99: on a
  // shared box, scheduler spikes land in the 1% tail of a
  // microsecond-scale distribution easily, and min-of-N measures the code
  // rather than the machine. The trajectory guard additionally enforces the
  // batched/fast *ratio* (see the "advantage" rows), where common-mode
  // load cancels out.
  constexpr int kReps = 3;
  LatencyRow row;
  std::vector<double> latencies_us;
  latencies_us.reserve(updates);
  for (int rep = 0; rep < kReps; ++rep) {
    latencies_us.clear();
    double total_us = 0.0;
    for (size_t i = 0; i < updates; ++i) {
      const EdgeMutation& m = safe_updates[i % safe_updates.size()];
      Timer t;
      if (fast) {
        driver.IngestFast(m);
      } else {
        driver.Ingest(m);
        driver.PrepQuery();
      }
      const double us = t.Seconds() * 1e6;
      latencies_us.push_back(us);
      total_us += us;
    }
    std::sort(latencies_us.begin(), latencies_us.end());
    const double p99 = PercentileUs(latencies_us, 0.99);
    if (rep == 0 || p99 < row.p99_us) {
      row.p50_us = PercentileUs(latencies_us, 0.50);
      row.p99_us = p99;
      row.mean_us = total_us / static_cast<double>(updates);
    }
  }
  driver.PrepQuery();
  const EngineStats stats = driver.stats();
  row.safe_applied = stats.fastpath_safe_applied;
  row.escalated = stats.fastpath_unsafe_escalated;
  return row;
}

// PageRank admits only graph no-ops on the fast path: re-adds of edges
// already present (normalized to nothing, so the batched replay provably
// skips Refine).
std::vector<EdgeMutation> PageRankSafeUpdates(const StreamSplit& split, size_t count) {
  std::vector<EdgeMutation> updates;
  for (size_t i = 0; i < count && i < split.initial.edges().size(); ++i) {
    const Edge& e = split.initial.edges()[i];
    updates.push_back(EdgeMutation::Add(e.src, e.dst, e.weight));
  }
  return updates;
}

// For the SSSP-family engines a real splice is provable: alternately add
// and delete one far-overweight edge into a vertex adjacent to the source.
// The 1e6 relaxation can never beat (or attain) the target's aggregate at
// any tracked level, so both directions classify safe while still paying
// the full adjacency splice.
std::vector<EdgeMutation> HeavyEdgeSafeUpdates(const MutableGraph& graph, VertexId source) {
  const auto nbrs = graph.OutNeighbors(source);
  const VertexId dst = nbrs.empty() ? source + 1 : nbrs[0];
  VertexId src = 0;
  for (VertexId u = 0; u < graph.num_vertices(); ++u) {
    if (u != source && u != dst && !graph.HasEdge(u, dst)) {
      src = u;
      break;
    }
  }
  return {EdgeMutation::Add(src, dst, 1e6f), EdgeMutation::Delete(src, dst)};
}

void RunLatencySweep(BenchJson& json) {
  PrintHeader(
      "Single-update serving latency: provably-safe single-edge mutations\n"
      "through the fast path (classify + splice in place, no barrier) vs.\n"
      "the batched pipeline at batch size 1 (Ingest + flush + PrepQuery\n"
      "barrier). p50/p99 are update→queryable, in microseconds.");

  constexpr size_t kFastUpdates = 8192;
  constexpr size_t kBatchedUpdates = 256;
  std::printf("\n%12s %8s %10s %10s %10s %10s %10s\n", "algo", "mode", "updates", "p50(us)",
              "p99(us)", "mean(us)", "escalated");

  struct Emit {
    const char* algo;
    const char* mode;
    size_t updates;
    LatencyRow row;
  };
  std::vector<Emit> emits;

  {
    const StreamSplit split = MakeStream(kWiki);
    const std::vector<EdgeMutation> safe = PageRankSafeUpdates(split, 512);
    MutableGraph g_fast(split.initial);
    GraphBoltEngine<PageRank> fast_engine(&g_fast, PageRank(0.85, kBenchTolerance));
    emits.push_back({"pagerank", "fast", kFastUpdates,
                     MeasureLatency(fast_engine, safe, kFastUpdates, /*fast=*/true)});
    MutableGraph g_batched(split.initial);
    GraphBoltEngine<PageRank> batched_engine(&g_batched, PageRank(0.85, kBenchTolerance));
    emits.push_back({"pagerank", "batched", kBatchedUpdates,
                     MeasureLatency(batched_engine, safe, kBatchedUpdates, /*fast=*/false)});
  }
  {
    const StreamSplit split = MakeStream(kWiki, /*weighted=*/true);
    MutableGraph g_fast(split.initial);
    const std::vector<EdgeMutation> safe = HeavyEdgeSafeUpdates(g_fast, 0);
    GraphBoltEngine<Sssp> fast_engine(&g_fast, Sssp(0),
                                      {.max_iterations = 128, .run_to_convergence = true});
    emits.push_back({"sssp", "fast", kFastUpdates,
                     MeasureLatency(fast_engine, safe, kFastUpdates, /*fast=*/true)});
    MutableGraph g_batched(split.initial);
    GraphBoltEngine<Sssp> batched_engine(&g_batched, Sssp(0),
                                         {.max_iterations = 128, .run_to_convergence = true});
    emits.push_back({"sssp", "batched", kBatchedUpdates,
                     MeasureLatency(batched_engine, safe, kBatchedUpdates, /*fast=*/false)});
  }
  {
    const StreamSplit split = MakeStream(kWiki, /*weighted=*/true);
    MutableGraph g_fast(split.initial);
    const std::vector<EdgeMutation> safe = HeavyEdgeSafeUpdates(g_fast, 0);
    KickStarterEngine<KsSsspTraits> fast_engine(&g_fast, KsSsspTraits(0));
    emits.push_back({"kickstarter", "fast", kFastUpdates,
                     MeasureLatency(fast_engine, safe, kFastUpdates, /*fast=*/true)});
    MutableGraph g_batched(split.initial);
    KickStarterEngine<KsSsspTraits> batched_engine(&g_batched, KsSsspTraits(0));
    emits.push_back({"kickstarter", "batched", kBatchedUpdates,
                     MeasureLatency(batched_engine, safe, kBatchedUpdates, /*fast=*/false)});
  }

  for (const Emit& e : emits) {
    std::printf("%12s %8s %10zu %10.2f %10.2f %10.2f %10llu\n", e.algo, e.mode, e.updates,
                e.row.p50_us, e.row.p99_us, e.row.mean_us,
                static_cast<unsigned long long>(e.row.escalated));
    json.Row()
        .Str("graph", kWiki.name)
        .Str("algo", e.algo)
        .Str("mode", e.mode)
        .Num("updates", static_cast<double>(e.updates))
        .Num("p50_us", e.row.p50_us)
        .Num("p99_us", e.row.p99_us)
        .Num("mean_us", e.row.mean_us)
        .Num("safe_applied", static_cast<double>(e.row.safe_applied))
        .Num("escalated", static_cast<double>(e.row.escalated));
  }
  // One enforced row per algorithm: bench_diff.py infers metric direction
  // from key names, and the raw `*_us` keys deliberately match no marker
  // (absolute microseconds swing with machine load — informational only).
  // The `*_speedup` ratios are higher-is-better and common-mode noise
  // cancels between the two modes, so the trajectory guard pins those.
  for (size_t i = 0; i + 1 < emits.size(); i += 2) {
    const LatencyRow& fast_row = emits[i].row;
    const LatencyRow& batched_row = emits[i + 1].row;
    const double p50_speedup =
        fast_row.p50_us > 0.0 ? batched_row.p50_us / fast_row.p50_us : 0.0;
    const double p99_speedup =
        fast_row.p99_us > 0.0 ? batched_row.p99_us / fast_row.p99_us : 0.0;
    std::printf("%12s p99 fast-path advantage: %.0fx (p50: %.0fx)\n", emits[i].algo,
                p99_speedup, p50_speedup);
    json.Row()
        .Str("graph", kWiki.name)
        .Str("algo", emits[i].algo)
        .Str("mode", "advantage")
        .Num("p50_speedup", p50_speedup)
        .Num("p99_speedup", p99_speedup);
  }
  std::printf(
      "\nExpected shape: the fast path classifies against the dependency\n"
      "store and splices under the journal lock only — microseconds, flat\n"
      "across algorithms. The batched path at batch size 1 pays the queue\n"
      "handoff plus a full refinement barrier per update — the fast path's\n"
      "p99 should sit >=10x below it. 'escalated' must be 0 in fast mode:\n"
      "these workloads are crafted to be provably safe.\n");
}

// ----- Async freshness under overload (INTERNALS §12) ------------------------

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

struct FreshnessRow {
  uint64_t samples = 0;              // degraded queries issued by this sweep
  uint64_t progression_samples = 0;  // samples whose served values had advanced
  EngineStats stats;                 // final driver stats after the drain barrier
};

// Paced overload flood against a kDegrade driver: one 100-edge chunk every
// ~300us versus a ~1.5ms batch apply keeps the pending queue non-empty at
// every governor update, so the degrade window stays open for the whole
// stream (a tight unpaced loop starves the worker on the driver mutex and
// the degrade gutter coalesces the backlog into one batch — no sustained
// pressure). While degraded, PrepQuery serves immediately without draining,
// so sampling it measures what a reader sees mid-overload: with the async
// tier engaged the served values keep moving batch-to-batch; in plain BSP
// degrade they only move when a whole batch promotes.
FreshnessRow RunFreshnessFlood(AsyncModePolicy policy) {
  const EdgeList full = GenerateRmat(800, 30000, {.seed = 401});
  const StreamSplit split = SplitForStreaming(full, 0.2, 402);
  const std::vector<MutationBatch> chunks = AdditionChunks(split.held_back, 100);

  MutableGraph graph(split.initial);
  GraphBoltEngine<PageRank> engine(&graph, PageRank(0.85, kBenchTolerance));
  engine.InitialCompute();

  FreshnessRow row;
  using Driver = StreamDriver<GraphBoltEngine<PageRank>>;
  {
    Driver driver(&engine, {.batch_size = 1u << 20,
                            .flush_interval_seconds = 0.005,
                            .max_pending_batches = 1,
                            .overflow = Driver::OverflowPolicy::kDegrade,
                            .coalesce = false,
                            .async_mode = policy,
                            .async_step_budget = 256,
                            .governor = {.degrade_pressure_seconds = 0.0,
                                         .recover_pressure_seconds = 0.0}});
    // Warm the latency EWMA with one normally-applied batch.
    driver.IngestBatch(chunks[0]);
    driver.Flush();
    driver.PrepQuery();

    uint64_t last_counter = 0;
    for (size_t next = 1; next < chunks.size(); ++next) {
      driver.IngestBatch(chunks[next]);
      driver.Flush();
      std::this_thread::sleep_for(std::chrono::microseconds(300));
      if (!driver.degraded()) {
        continue;
      }
      driver.PrepQuery();  // degraded serve: non-blocking
      const EngineStats s = driver.stats();
      ++row.samples;
      // Freshness counter: async applies move the served values directly;
      // in BSP degrade only whole-batch promotions do.
      const uint64_t counter = s.async_applies + s.batches_applied;
      if (row.samples > 1 && counter > last_counter) {
        ++row.progression_samples;
      }
      last_counter = counter;
    }
    // Flood over: idle ticks drain pressure and self-clear the mode, then
    // the final barrier reconciles back to an exact BSP snapshot.
    for (int i = 0; i < 1000 && driver.degraded(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    driver.PrepQuery();
    row.stats = driver.stats();
  }
  return row;
}

void RunAsyncFreshnessSweep(BenchJson& json) {
  PrintHeader(
      "Async freshness under overload: a paced flood holds a kDegrade\n"
      "driver in its degrade window while this thread samples degraded\n"
      "PrepQuery serves. 'fresh' = served from continuously-updating async\n"
      "values; 'progressed' = the served values advanced since the last\n"
      "sample. BSP degrade (async off) is the frozen-snapshot baseline.");

  struct Mode {
    const char* name;
    AsyncModePolicy policy;
  };
  const Mode modes[] = {{"bsp-degrade", AsyncModePolicy::kOff},
                        {"async-degrade", AsyncModePolicy::kDegradeOnly}};
  std::printf("\n%14s %9s %11s %8s %8s %11s %11s %9s\n", "mode", "degraded", "fresh", "applies",
              "asyncs", "progressed", "reconciles", "residual");
  for (const Mode& mode : modes) {
    const FreshnessRow row = RunFreshnessFlood(mode.policy);
    const EngineStats& s = row.stats;
    const double fresh_rate =
        s.degraded_queries == 0
            ? 0.0
            : static_cast<double>(s.async_fresh_queries) / static_cast<double>(s.degraded_queries);
    std::printf("%14s %9llu %11llu %8llu %8llu %11llu %11llu %9.3g\n", mode.name,
                static_cast<unsigned long long>(s.degraded_queries),
                static_cast<unsigned long long>(s.async_fresh_queries),
                static_cast<unsigned long long>(s.batches_applied),
                static_cast<unsigned long long>(s.async_applies),
                static_cast<unsigned long long>(row.progression_samples),
                static_cast<unsigned long long>(s.async_reconciles), s.async_residual);
    json.Row()
        .Str("mode", mode.name)
        .Num("degraded_queries", static_cast<double>(s.degraded_queries))
        .Num("fresh_serve_rate", fresh_rate)
        .Num("async_applies", static_cast<double>(s.async_applies))
        .Num("async_entries", static_cast<double>(s.async_entries))
        .Num("async_reconciles", static_cast<double>(s.async_reconciles))
        .Num("progression_samples", static_cast<double>(row.progression_samples))
        .Num("residual_final", s.async_residual);
  }
  std::printf(
      "\nExpected shape: async-degrade serves every degraded query from\n"
      "live values (fresh_serve_rate ~1.0, nonzero async applies and at\n"
      "least one reconcile); bsp-degrade serves frozen snapshots (fresh\n"
      "rate 0). residual must be 0 after the final barrier in both modes.\n");
}

void Run() {
  PrintHeader(
      "Driver throughput: single-producer Ingest() of the held-back\n"
      "addition stream (WK* surrogate, PageRank engine) swept over the\n"
      "gutter batch size. 'ingest' excludes and 'end-to-end' includes the\n"
      "final PrepQuery() drain.");

  const StreamSplit split = MakeStream(kWiki);
  std::printf("\n%10s %14s %14s %10s %8s %12s %12s\n", "batch", "ingest/s", "end-to-end/s",
              "drain(s)", "batches", "flush(ms)", "qwait(s)");
  for (const size_t batch_size : kBatchSizes) {
    const Row row =
        RunOnce(split, {.batch_size = batch_size, .flush_interval_seconds = 0.5}, 1);
    std::printf("%10zu %14.0f %14.0f %10.3f %8llu %12.2f %12.3f\n", batch_size,
                row.ingest_rate, row.end_to_end_rate, row.drain_seconds,
                static_cast<unsigned long long>(row.batches), row.avg_flush_latency_ms,
                row.queue_wait_seconds);
  }
  std::printf(
      "\nExpected shape: ingest and end-to-end rates rise with batch size\n"
      "(per-batch refinement amortizes); flush latency rises with it (a\n"
      "mutation waits longer in the gutter); queue wait shows where the\n"
      "worker, not the producer, is the bottleneck.\n");

  PrintHeader(
      "Driver lane scaling: the same stream split across one producer\n"
      "session per lane, swept over the shard count (batch 1024). Lane\n"
      "ingestion is concurrent; promotion serializes on the engine.");

  BenchJson json("shard_scaling");
  std::printf("\n%10s %10s %14s %14s %10s %8s %12s\n", "shards", "producers", "ingest/s",
              "end-to-end/s", "drain(s)", "batches", "cross-shard");
  for (const size_t shards : kShardCounts) {
    // One producer session per lane.
    const Row row = RunOnce(
        split,
        {.shards = shards, .batch_size = kShardSweepBatch, .flush_interval_seconds = 0.5},
        shards);
    std::printf("%10zu %10zu %14.0f %14.0f %10.3f %8llu %12llu\n", shards, shards,
                row.ingest_rate, row.end_to_end_rate, row.drain_seconds,
                static_cast<unsigned long long>(row.batches),
                static_cast<unsigned long long>(row.cross_shard));
    json.Row()
        .Str("graph", kWiki.name)
        .Num("shards", static_cast<double>(shards))
        .Num("producers", static_cast<double>(shards))
        .Num("batch_size", static_cast<double>(kShardSweepBatch))
        .Num("ingest_rate", row.ingest_rate)
        .Num("end_to_end_rate", row.end_to_end_rate)
        .Num("drain_seconds", row.drain_seconds)
        .Num("batches", static_cast<double>(row.batches))
        .Num("cross_shard", static_cast<double>(row.cross_shard));
  }
  const std::string path = json.DefaultPath();
  std::printf("\n%s\n", json.WriteFile(path) ? ("wrote " + path).c_str()
                                             : ("FAILED to write " + path).c_str());
  std::printf(
      "Expected shape: on a many-core box ingest rate rises with lanes\n"
      "until promotion (the serialized engine apply) saturates; on one\n"
      "core the sweep mainly buys ingest-side isolation, not speedup.\n"
      "Cross-shard counts mutations whose endpoints live on different\n"
      "lanes — routed once, by source, never duplicated.\n");

  BenchJson latency_json("fastpath_latency");
  RunLatencySweep(latency_json);
  const std::string latency_path = latency_json.DefaultPath();
  std::printf("\n%s\n", latency_json.WriteFile(latency_path)
                            ? ("wrote " + latency_path).c_str()
                            : ("FAILED to write " + latency_path).c_str());

  BenchJson freshness_json("async_freshness");
  RunAsyncFreshnessSweep(freshness_json);
  const std::string freshness_path = freshness_json.DefaultPath();
  std::printf("\n%s\n", freshness_json.WriteFile(freshness_path)
                            ? ("wrote " + freshness_path).c_str()
                            : ("FAILED to write " + freshness_path).c_str());
}

}  // namespace
}  // namespace graphbolt

int main() {
  graphbolt::Run();
  return 0;
}

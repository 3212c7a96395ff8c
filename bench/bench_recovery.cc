// Checkpoint cadence vs. streaming overhead vs. recovery time.
//
// Not a paper table: GraphBolt itself has no durability story; this measures
// what the ChaosStream subsystem (WAL + cadence checkpoints, src/fault/)
// costs on the ingest path and buys back at recovery. Cadence 0 journals to
// the WAL but never checkpoints (recovery replays the whole log from the
// baseline snapshot); cadence 1 checkpoints every batch (near-zero replay
// tail, maximum write amplification). A second sweep floods a squeezed queue
// under each lossless overflow policy (sentinel layer) and reports where the
// waiting moved. Fault-injection hooks are NOT compiled into this binary —
// GB_FAULT_POINT is the literal `false` — so the numbers also bound the cost
// of the disabled hooks themselves. Both sweeps land in BENCH_recovery.json
// (BenchJson) for CI trend-diffing. Every row runs kRepetitions times and
// reports the median of each timing field: single checkpoint and flood
// timings are a few milliseconds and swing far more than the trajectory
// band between runs.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <initializer_list>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "src/algorithms/pagerank.h"
#include "src/core/graphbolt_engine.h"
#include "src/driver/stream_driver.h"
#include "src/fault/checkpoint.h"
#include "src/shard/driver_config.h"
#include "src/util/timer.h"

namespace graphbolt {
namespace {

constexpr uint64_t kCadences[] = {0, 1, 4, 16, 64};
// Deliberately NOT a multiple of the larger cadences, so the run ends
// between checkpoints and recovery has a real WAL tail to replay.
constexpr size_t kBatches = 63;
constexpr size_t kBatchSize = 512;
// Overload sweep: the queue is squeezed to this depth so a paced-free flood
// of the same 63 batches actually hits the overflow policy instead of just
// draining through.
constexpr size_t kOverloadQueueDepth = 2;
constexpr int kRepetitions = 3;

// Runs `run` kRepetitions times and returns the first run's row with each
// of `timings` replaced by its median across the runs. Counters keep the
// first run's value.
template <typename RowT, typename RunFn>
RowT MedianRow(RunFn run, std::initializer_list<double RowT::*> timings) {
  std::vector<RowT> rows;
  for (int i = 0; i < kRepetitions; ++i) {
    rows.push_back(run());
  }
  RowT median = rows.front();
  for (double RowT::*field : timings) {
    std::vector<double> samples;
    for (const RowT& row : rows) {
      samples.push_back(row.*field);
    }
    std::nth_element(samples.begin(), samples.begin() + kRepetitions / 2, samples.end());
    median.*field = samples[kRepetitions / 2];
  }
  return median;
}

struct Row {
  uint64_t cadence = 0;
  double stream_seconds = 0.0;      // ingest + barrier, checkpointing driver
  uint64_t checkpoints = 0;
  double checkpoint_ms = 0.0;       // total time inside WriteCheckpoint
  uint64_t wal_appends = 0;
  double recovery_ms = 0.0;         // cold Recover() wall time
  uint64_t replayed = 0;            // WAL-tail batches re-applied by Recover
};

using Engine = GraphBoltEngine<PageRank>;

Row RunOnce(const StreamSplit& split, const std::vector<MutationBatch>& batches,
            uint64_t cadence, const std::string& dir) {
  std::filesystem::remove_all(dir);
  Row row;
  row.cadence = cadence;

  MutableGraph graph(split.initial);
  Engine engine(&graph, PageRank(0.85, kBenchTolerance));
  engine.InitialCompute();
  {
    Checkpointer<Engine> checkpointer(&engine, &graph,
                                      {.directory = dir, .cadence_batches = cadence});
    StreamDriver<Engine> driver(
        &engine, {.batch_size = kBatchSize, .flush_interval_seconds = 3600.0, .coalesce = false},
        &checkpointer);
    driver.CheckpointNow();  // baseline snapshot so cadence 0 can recover
    Timer stream;
    for (const MutationBatch& batch : batches) {
      driver.IngestBatch(batch);
      driver.Flush();
    }
    driver.PrepQuery();
    row.stream_seconds = stream.Seconds();
    driver.Stop();
    const EngineStats stats = driver.stats();
    row.checkpoints = stats.checkpoints_written;
    row.checkpoint_ms = stats.checkpoint_seconds * 1e3;
    row.wal_appends = stats.wal_appends;
  }

  // Cold process restart: fresh graph + engine, recover purely from disk.
  MutableGraph cold_graph;
  Engine cold(&cold_graph, PageRank(0.85, kBenchTolerance));
  Checkpointer<Engine> restorer(&cold, &cold_graph,
                                {.directory = dir, .cadence_batches = cadence});
  StreamDriver<Engine> cold_driver(&cold, {}, &restorer);
  Timer recovery;
  const bool recovered = cold_driver.Recover();
  row.recovery_ms = recovery.Seconds() * 1e3;
  cold_driver.Stop();
  row.replayed = cold_driver.stats().batches_replayed;
  GB_CHECK(recovered);
  GB_CHECK(cold_graph.num_edges() == graph.num_edges());

  std::filesystem::remove_all(dir);
  return row;
}

// ----- Sharded recovery (RTO) -------------------------------------------------
// Time-to-recover through Recover() at one and four lanes: checkpoint
// restore, then the global journal tail, replayed serially in promotion
// order at every lane count. The lane count changes how the stream was
// promoted (and so the stream cost), not how recovery works; RTO tracks
// the replay tail's length, and the recovered state stays bitwise
// identical to the promotion order.

struct RtoRow {
  size_t shards = 0;
  double stream_seconds = 0.0;
  double recovery_ms = 0.0;
  uint64_t replayed_total = 0;
};

RtoRow RunRto(const StreamSplit& split, const std::vector<MutationBatch>& batches,
              size_t shards, const std::string& dir) {
  std::filesystem::remove_all(dir);
  RtoRow row;
  row.shards = shards;

  MutableGraph graph(split.initial);
  Engine engine(&graph, PageRank(0.85, kBenchTolerance));
  engine.InitialCompute();
  {
    Checkpointer<Engine> checkpointer(&engine, &graph,
                                      {.directory = dir, .cadence_batches = 16});
    DriverConfig config;
    config.shards = shards;
    config.batch_size = kBatchSize;
    config.flush_interval_seconds = 3600.0;
    config.coalesce = false;
    config.checkpoint_dir = dir;
    StreamDriver<Engine> driver(&engine, config, &checkpointer);
    driver.CheckpointNow();
    Timer stream;
    for (const MutationBatch& batch : batches) {
      driver.IngestBatch(batch);
      driver.Flush();
    }
    driver.PrepQuery();
    row.stream_seconds = stream.Seconds();
    driver.Stop();
  }

  MutableGraph cold_graph;
  Engine cold(&cold_graph, PageRank(0.85, kBenchTolerance));
  Checkpointer<Engine> restorer(&cold, &cold_graph,
                                {.directory = dir, .cadence_batches = 16});
  DriverConfig config;
  config.shards = shards;
  config.batch_size = kBatchSize;
  config.flush_interval_seconds = 3600.0;
  config.coalesce = false;
  config.checkpoint_dir = dir;
  StreamDriver<Engine> cold_driver(&cold, config, &restorer);
  Timer recovery;
  const bool recovered = cold_driver.Recover();
  row.recovery_ms = recovery.Seconds() * 1e3;
  cold_driver.Stop();
  row.replayed_total = cold_driver.stats().batches_replayed;
  GB_CHECK(recovered);
  GB_CHECK(cold_graph.num_edges() == graph.num_edges());

  std::filesystem::remove_all(dir);
  return row;
}

// ----- Overload / shedding scenario ------------------------------------------
// Floods a depth-2 queue with the full batch stream (no pacing, no barriers
// between batches) under each lossless overflow policy, then settles with one
// PrepQuery barrier. kBlock is the backpressure baseline; kShedToWal /
// kShedOldest divert to the durable shed log and replay at the barrier;
// kDegrade coalesces in the gutter and serves the stale snapshot meanwhile.
// All four end bitwise-equal on an addition-only stream, so the interesting
// output is *where the time went* and how much traffic was diverted.

struct OverloadRow {
  const char* policy = "";
  double ingest_seconds = 0.0;   // flood-ingest wall time (producer side)
  double barrier_seconds = 0.0;  // the settling PrepQuery
  uint64_t shed_to_wal = 0;      // mutations diverted to the shed log
  uint64_t shed_replayed = 0;    // shed batches re-applied at the barrier
  uint64_t evictions = 0;        // kShedOldest queue evictions
  uint64_t degraded_entries = 0;
  uint64_t degraded_queries = 0;
  double apply_ewma_ms = 0.0;    // governor's view of per-batch apply cost
};

// Every lane gets the depth-2 queue, the shed log is shared (sequence-
// tagged, replayed behind the global PrepQuery barrier), and the degrade
// governor coordinates across lanes. shards=4 shows how much of the
// overload the extra lanes absorb before the sentinel engages.
OverloadRow RunOverloadOnce(const StreamSplit& split, const std::vector<MutationBatch>& batches,
                            OverflowPolicy policy, const char* policy_name, size_t shards,
                            const std::string& dir) {
  std::filesystem::remove_all(dir);
  OverloadRow row;
  row.policy = policy_name;

  MutableGraph graph(split.initial);
  Engine engine(&graph, PageRank(0.85, kBenchTolerance));
  engine.InitialCompute();
  Checkpointer<Engine> checkpointer(&engine, &graph,
                                    {.directory = dir, .cadence_batches = 16});
  DriverConfig config;
  config.shards = shards;
  config.batch_size = kBatchSize;
  config.flush_interval_seconds = 3600.0;
  config.max_pending_batches = kOverloadQueueDepth;
  config.overflow = policy;
  config.coalesce = false;
  config.checkpoint_dir = dir;
  // Trip the degraded mode on bench-sized applies: with the default 2 s
  // pressure threshold a sub-millisecond PageRank apply would never
  // register as overload.
  config.governor = {.degrade_pressure_seconds = 1e-3,
                     .recover_pressure_seconds = 1e-4};
  StreamDriver<Engine> driver(&engine, config, &checkpointer);
  driver.CheckpointNow();

  Timer ingest;
  for (const MutationBatch& batch : batches) {
    driver.IngestBatch(batch);
    driver.Flush();
  }
  row.ingest_seconds = ingest.Seconds();
  Timer barrier;
  driver.PrepQuery();
  // A degraded-mode PrepQuery serves the stale snapshot without draining;
  // poll until the governor's pressure recedes (the queue drains on its own
  // once the flood stops) and a real barrier lands, so barrier_seconds
  // reports the true settle time, not the degraded fast-return.
  for (int i = 0; (driver.degraded() || driver.pending_mutations() > 0) && i < 1000;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    driver.PrepQuery();
  }
  row.barrier_seconds = barrier.Seconds();
  driver.Stop();

  const EngineStats stats = driver.stats();
  row.shed_to_wal = stats.mutations_shed_to_wal;
  row.shed_replayed = stats.shed_batches_replayed;
  row.evictions = stats.shed_oldest_evictions;
  row.degraded_entries = stats.degraded_entries;
  row.degraded_queries = stats.degraded_queries;
  row.apply_ewma_ms = stats.apply_ewma_seconds * 1e3;

  MutableGraph expected(split.initial);
  for (const MutationBatch& batch : batches) {
    expected.ApplyBatch(batch);
  }
  GB_CHECK(graph.num_edges() == expected.num_edges());

  std::filesystem::remove_all(dir);
  return row;
}

OverloadRow RunOverload(const StreamSplit& split, const std::vector<MutationBatch>& batches,
                        OverflowPolicy policy, const char* policy_name, size_t shards,
                        const std::string& dir) {
  return MedianRow<OverloadRow>(
      [&] { return RunOverloadOnce(split, batches, policy, policy_name, shards, dir); },
      {&OverloadRow::ingest_seconds, &OverloadRow::barrier_seconds,
       &OverloadRow::apply_ewma_ms});
}

void Run() {
  PrintHeader(
      "Checkpoint cadence sweep (WK* surrogate, PageRank engine, 63 batches\n"
      "x 512 mutations). 'stream' is ingest + barrier through a journaling\n"
      "driver; 'recover' is a cold-process Recover() from the same directory\n"
      "afterwards. Cadence 0 = WAL-only (full-log replay). Timings in every\n"
      "table are the median of 3 runs.");

  const StreamSplit split = MakeStream(kWiki);
  const std::vector<MutationBatch> batches =
      MakeBatches(split, kBatches, {.size = kBatchSize, .add_fraction = 0.7}, 7);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "graphbolt_bench_recovery").string();

  BenchJson json("recovery");

  std::printf("\n%8s %10s %8s %10s %8s %12s %10s\n", "cadence", "stream(s)", "ckpts",
              "ckpt(ms)", "wal", "recover(ms)", "replayed");
  for (const uint64_t cadence : kCadences) {
    const Row row = MedianRow<Row>([&] { return RunOnce(split, batches, cadence, dir); },
                                   {&Row::stream_seconds, &Row::checkpoint_ms, &Row::recovery_ms});
    std::printf("%8llu %10.3f %8llu %10.2f %8llu %12.2f %10llu\n",
                static_cast<unsigned long long>(row.cadence), row.stream_seconds,
                static_cast<unsigned long long>(row.checkpoints), row.checkpoint_ms,
                static_cast<unsigned long long>(row.wal_appends), row.recovery_ms,
                static_cast<unsigned long long>(row.replayed));
    json.Row()
        .Str("mode", "cadence")
        .Num("cadence", static_cast<double>(row.cadence))
        .Num("stream_seconds", row.stream_seconds)
        .Num("checkpoints", static_cast<double>(row.checkpoints))
        .Num("checkpoint_ms", row.checkpoint_ms)
        .Num("wal_appends", static_cast<double>(row.wal_appends))
        .Num("recovery_ms", row.recovery_ms)
        .Num("replayed", static_cast<double>(row.replayed));
  }
  std::printf(
      "\nExpected shape: checkpoint count and checkpoint time fall as the\n"
      "cadence grows while the recovery replay tail (and so recovery time)\n"
      "rises; WAL appends are cadence-independent. The stream column bounds\n"
      "the durability tax over bench_driver_throughput's WAL-free driver.\n");

  PrintHeader(
      "Sharded recovery (RTO): the same stream through the driver's lanes\n"
      "at cadence 16, then a cold Recover() — checkpoint restore, then the\n"
      "global journal tail, the same path at every lane count.");

  constexpr size_t kRtoShards[] = {1, 4};
  std::printf("\n%7s %10s %12s %10s\n", "shards", "stream(s)", "recover(ms)", "replayed");
  for (const size_t shards : kRtoShards) {
    const RtoRow row = MedianRow<RtoRow>([&] { return RunRto(split, batches, shards, dir); },
                                         {&RtoRow::stream_seconds, &RtoRow::recovery_ms});
    std::printf("%7zu %10.3f %12.2f %10llu\n", row.shards, row.stream_seconds, row.recovery_ms,
                static_cast<unsigned long long>(row.replayed_total));
    json.Row()
        .Str("mode", "rto")
        .Num("shards", static_cast<double>(row.shards))
        .Num("stream_seconds", row.stream_seconds)
        .Num("recovery_ms", row.recovery_ms)
        .Num("replayed", static_cast<double>(row.replayed_total));
  }
  std::printf(
      "\nExpected shape: RTO follows the replayed column (the journal tail\n"
      "past the newest checkpoint), not the lane count, and the recovered\n"
      "edge count stays identical to the live run's.\n");

  PrintHeader(
      "Overload / shedding sweep: same stream (additions only) flooded into\n"
      "a depth-2 queue with no pacing, one settling barrier at the end. All\n"
      "policies are lossless; the sweep measures where the waiting moved.");

  const std::vector<MutationBatch> flood =
      MakeBatches(split, kBatches, {.size = kBatchSize, .add_fraction = 1.0}, 11);
  constexpr struct {
    OverflowPolicy policy;
    const char* name;
  } kPolicies[] = {{OverflowPolicy::kBlock, "block"},
                   {OverflowPolicy::kShedToWal, "shed-to-wal"},
                   {OverflowPolicy::kShedOldest, "shed-oldest"},
                   {OverflowPolicy::kDegrade, "degrade"}};

  std::printf("\n%12s %10s %11s %8s %9s %7s %9s %9s %9s\n", "policy", "ingest(s)",
              "barrier(s)", "shed", "replayed", "evict", "degr.in", "degr.qry",
              "ewma(ms)");
  // The one-lane runs fill both this table and the shards=1 rows of the
  // sharded table below.
  std::vector<OverloadRow> one_lane;
  for (const auto& entry : kPolicies) {
    const OverloadRow row = RunOverload(split, flood, entry.policy, entry.name, 1, dir);
    one_lane.push_back(row);
    std::printf("%12s %10.3f %11.3f %8llu %9llu %7llu %9llu %9llu %9.3f\n", row.policy,
                row.ingest_seconds, row.barrier_seconds,
                static_cast<unsigned long long>(row.shed_to_wal),
                static_cast<unsigned long long>(row.shed_replayed),
                static_cast<unsigned long long>(row.evictions),
                static_cast<unsigned long long>(row.degraded_entries),
                static_cast<unsigned long long>(row.degraded_queries),
                row.apply_ewma_ms);
    json.Row()
        .Str("mode", "overload")
        .Str("policy", row.policy)
        .Num("ingest_seconds", row.ingest_seconds)
        .Num("barrier_seconds", row.barrier_seconds)
        .Num("mutations_shed_to_wal", static_cast<double>(row.shed_to_wal))
        .Num("shed_batches_replayed", static_cast<double>(row.shed_replayed))
        .Num("shed_oldest_evictions", static_cast<double>(row.evictions))
        .Num("degraded_entries", static_cast<double>(row.degraded_entries))
        .Num("degraded_queries", static_cast<double>(row.degraded_queries))
        .Num("apply_ewma_ms", row.apply_ewma_ms);
  }
  std::printf(
      "\nExpected shape: kBlock pays in ingest (producer stalls), the shed\n"
      "policies pay at the barrier (replay of the diverted tail), kDegrade\n"
      "pays nothing up front and defers coalesced work to the barrier.\n");

  PrintHeader(
      "Sharded overload sweep: the same flood through the driver's lanes\n"
      "(shared shed log, lane-coordinated degrade, global replay barrier).\n"
      "shards=1 rows are the runs above; shards=4 shows lanes absorbing\n"
      "overload before the sentinel engages.");

  constexpr size_t kShardCounts[] = {1, 4};
  std::printf("\n%7s %12s %10s %11s %8s %9s %7s %9s %9s\n", "shards", "policy",
              "ingest(s)", "barrier(s)", "shed", "replayed", "evict", "degr.in",
              "degr.qry");
  for (const size_t shards : kShardCounts) {
    for (size_t p = 0; p < std::size(kPolicies); ++p) {
      const OverloadRow row =
          shards == 1 ? one_lane[p]
                      : RunOverload(split, flood, kPolicies[p].policy, kPolicies[p].name, shards,
                                    dir);
      std::printf("%7zu %12s %10.3f %11.3f %8llu %9llu %7llu %9llu %9llu\n", shards,
                  row.policy, row.ingest_seconds, row.barrier_seconds,
                  static_cast<unsigned long long>(row.shed_to_wal),
                  static_cast<unsigned long long>(row.shed_replayed),
                  static_cast<unsigned long long>(row.evictions),
                  static_cast<unsigned long long>(row.degraded_entries),
                  static_cast<unsigned long long>(row.degraded_queries));
      json.Row()
          .Str("mode", "overload-sharded")
          .Str("policy", row.policy)
          .Num("shards", static_cast<double>(shards))
          .Num("ingest_seconds", row.ingest_seconds)
          .Num("barrier_seconds", row.barrier_seconds)
          .Num("mutations_shed_to_wal", static_cast<double>(row.shed_to_wal))
          .Num("shed_batches_replayed", static_cast<double>(row.shed_replayed))
          .Num("shed_oldest_evictions", static_cast<double>(row.evictions))
          .Num("degraded_entries", static_cast<double>(row.degraded_entries))
          .Num("degraded_queries", static_cast<double>(row.degraded_queries));
    }
  }

  const std::string json_path = json.DefaultPath();
  if (json.WriteFile(json_path)) {
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::printf("FAILED to write %s\n", json_path.c_str());
  }
}

}  // namespace
}  // namespace graphbolt

int main() {
  graphbolt::Run();
  return 0;
}

// pr-sharded-rw: GraphBoltEngine<PageRank> on a 10k-vertex / 120k-edge
// R-MAT surrogate behind a 4-lane ShardedDriver with a Checkpointer (WAL
// plus cadence checkpoints) in a fresh directory. Two producer threads,
// each with its own Session, ingest 256-mutation batches with no barriers;
// one reader thread calls QuerySnapshot. Producers and reader run open
// loops at fixed rates. Writes beside reads: the only workload where the
// shard and fault layers do real work.
//
// The producers are open-loop because closed-loop producers starve the
// reader: the two-phase barrier waits for every lane to drain, which never
// happens while producers keep every lane queue full, so each QuerySnapshot
// returned only when the producers stopped (p50 6.4 s in a 10 s run).
// Every query barrier flushes all four lanes, so a read costs four
// promotions; on the 60k / 800k graph first planned a promotion took
// ~240 ms and the reader could not even run once a second. The graph is
// the 10k / 120k surrogate the repository's shard-scaling bench uses.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/fault/checkpoint.h"
#include "src/graph/generators.h"
#include "src/shard/driver_config.h"
#include "src/shard/sharded_driver.h"
#include "src/stream/update_stream.h"

namespace perfbench {
namespace {

using graphbolt::MutationBatch;

constexpr graphbolt::VertexId kVertices = 10000;
constexpr graphbolt::EdgeIndex kEdges = 120000;
// The dataset (the loaded half and the held-back half) is fixed, as a real
// graph would be; --seed picks the mutation stream.
constexpr uint64_t kGraphSeed = 101;
constexpr size_t kShards = 4;
constexpr size_t kProducers = 2;
constexpr size_t kIngestBatch = 256;
constexpr double kAddFraction = 0.6;
// Offered load per producer, mutations per second: four 256-mutation calls
// a second each, the two producers half a period apart.
constexpr double kProducerRate = 1024.0;
// Reader schedule, QuerySnapshot calls per second: one read between each
// two consecutive ingest calls, so every read flushes exactly one call's
// worth and every update waits the same time for its read. Reads that beat
// against the producers' period (4/s against calls every 0.256 s) varied
// the flushed amount through a run and spread query latency 15-23% across
// runs; reads at every other call split update latency into two clusters
// with the median between them. The engine stays about a third busy, so
// the reader's barriers drain.
constexpr double kReaderRate = 8.0;
static_assert(kProducers * kProducerRate / kIngestBatch == kReaderRate,
              "one read per ingest call");
constexpr int kSetupRuns = 3;

struct Inputs {
  graphbolt::EdgeList initial;
  std::vector<std::vector<MutationBatch>> per_producer;
};

Inputs MakeInputs(uint64_t seed, double seconds) {
  graphbolt::StreamSplit split = graphbolt::SplitForStreaming(
      graphbolt::GenerateRmat(kVertices, kEdges, {.seed = kGraphSeed}), 0.5, kGraphSeed + 1);
  Inputs in;
  in.initial = std::move(split.initial);
  in.per_producer.resize(kProducers);
  graphbolt::MutableGraph shadow(in.initial);
  graphbolt::UpdateStream stream(std::move(split.held_back), seed);
  const auto count = static_cast<size_t>(
      std::ceil(seconds * kProducerRate * kProducers / kIngestBatch)) + kProducers;
  for (size_t i = 0; i < count; ++i) {
    MutationBatch batch =
        stream.NextBatch(shadow, {.size = kIngestBatch, .add_fraction = kAddFraction});
    shadow.ApplyBatch(batch);
    in.per_producer[i % kProducers].push_back(std::move(batch));
  }
  return in;
}

graphbolt::DriverConfig PinnedConfig(const std::string& dir) {
  graphbolt::DriverConfig c;
  c.shards = kShards;
  c.batch_size = 1024;
  // Lanes flush on the reader's barriers, at 1024 mutations, or after a
  // second. At the 50 ms default the lanes flushed as fast as promotions
  // completed and reads waited seconds (p50 5.3 s).
  c.flush_interval_seconds = 1.0;
  c.max_pending_batches = 4;
  c.overflow = graphbolt::OverflowPolicy::kBlock;
  c.coalesce = true;
  c.background_compaction = false;
  c.fast_path = false;
  c.async_mode = graphbolt::AsyncModePolicy::kOff;
  c.checkpoint_dir = dir;
  c.checkpoint_every = 8;
  c.scrub_interval_seconds = 0.0;
  c.watchdog_stall_seconds = 0.0;
  return c;
}

// One promotion as the apply observer saw it, in global apply order.
struct Promotion {
  size_t lane = 0;
  MutationBatch batch;
};

template <bool kTraced>
struct System {
  using Driven = std::conditional_t<kTraced, TracedEngine<PageRankEngine>, PageRankEngine>;

  System(const graphbolt::EdgeList& initial, TraceLog* log, const std::string& dir,
         graphbolt::StorageEnv* env)
      : graph(initial), engine(MakePageRankEngine(&graph)), traced(&engine, log) {
    driven()->InitialCompute();
    const graphbolt::DriverConfig config = PinnedConfig(dir);
    checkpointer = std::make_unique<graphbolt::Checkpointer<Driven>>(
        driven(), &graph,
        typename graphbolt::Checkpointer<Driven>::Options{
            .directory = dir, .cadence_batches = config.checkpoint_every, .env = env});
    driver = std::make_unique<graphbolt::ShardedDriver<Driven>>(driven(), config,
                                                                checkpointer.get());
    driver->set_apply_observer([this](size_t lane, const MutationBatch& batch) {
      promotions.push_back({lane, batch});  // runs under the driver's journal lock
    });
    driver->CheckpointNow();
  }

  Driven* driven() {
    if constexpr (kTraced) {
      return &traced;
    } else {
      return &engine;
    }
  }

  graphbolt::MutableGraph graph;
  PageRankEngine engine;
  TracedEngine<PageRankEngine> traced;
  std::vector<Promotion> promotions;
  std::unique_ptr<graphbolt::Checkpointer<Driven>> checkpointer;
  std::unique_ptr<graphbolt::ShardedDriver<Driven>> driver;  // destroyed first
};

struct IngestRecord {
  double due = 0.0;
  Interval time;
  size_t offered = 0;
  size_t accepted = 0;
};

struct ReadRecord {
  double due = 0.0;
  Interval time;
  bool ok = false;
};

template <bool kTraced>
Phase RunPhase(System<kTraced>& system, const Inputs& in, double seconds) {
  auto& driver = *system.driver;
  const size_t vertices = system.graph.num_vertices();
  Phase p;
  p.start = Now();
  const double deadline = p.start + seconds;

  std::vector<std::vector<IngestRecord>> ingests(kProducers);
  std::vector<ReadRecord> reads;
  std::vector<std::thread> threads;
  for (size_t id = 0; id < kProducers; ++id) {
    threads.emplace_back([&, id] {
      auto session = driver.OpenSession("producer-" + std::to_string(id));
      // The producers' schedules interleave, half a period apart.
      const double rate = kProducerRate / kIngestBatch;
      const OpenLoopSchedule schedule{.start = p.start + id / (rate * kProducers), .rate = rate};
      for (size_t k = 0; k < in.per_producer[id].size(); ++k) {
        const double due = schedule.Due(k);
        if (due >= deadline) {
          break;
        }
        WaitUntil(due);
        const MutationBatch& batch = in.per_producer[id][k];
        const double issued = Now();
        const size_t accepted = session.IngestBatch(batch);
        ingests[id].push_back({due, {issued, Now()}, batch.size(), accepted});
      }
    });
  }
  threads.emplace_back([&] {
    const double ingest_period = kIngestBatch / (kProducerRate * kProducers);
    const OpenLoopSchedule schedule{.start = p.start + ingest_period / 2, .rate = kReaderRate};
    for (size_t k = 0;; ++k) {
      const double due = schedule.Due(k);
      if (due >= deadline) {
        break;
      }
      WaitUntil(due);
      const double issued = Now();
      const std::vector<double> snapshot = driver.QuerySnapshot();
      const double done = Now();
      reads.push_back({due, {issued, done}, snapshot.size() == vertices && driver.healthy()});
    }
  });
  for (std::thread& t : threads) {
    t.join();
  }
  const double final_start = Now();
  driver.PrepQuery();
  const double final_end = Now();
  p.wall_seconds = final_end - p.start;
  p.attempted += 1;
  p.failed += driver.healthy() ? 0 : 1;

  std::vector<Interval> barriers;
  for (const ReadRecord& r : reads) {
    barriers.push_back(r.time);
    p.attempted += 1;
    p.failed += r.ok ? 0 : 1;
    const DueTiming t = TimeFromDue(r.due, r.time.start, r.time.end);
    p.query_ms.push_back(t.latency * 1e3);
    p.late_ms.push_back(t.late * 1e3);
    p.barrier_ms.push_back(r.time.length() * 1e3);
  }
  barriers.push_back({final_start, final_end});
  // An update is timed from its due time to the end of the first barrier
  // that began after its ingest call returned.
  std::vector<Interval> ingest_times;
  for (const auto& records : ingests) {
    for (const IngestRecord& r : records) {
      ingest_times.push_back({r.due, r.time.end});
      p.admitted += r.accepted;
      p.attempted += 1;
      p.failed += r.accepted < r.offered ? 1 : 0;
      p.ingest_us.push_back(r.time.length() * 1e6);
      p.late_ms.push_back(TimeFromDue(r.due, r.time.start, r.time.end).late * 1e3);
    }
  }
  // Every ingest has a barrier after it: the final one.
  const std::vector<std::optional<double>> latencies = AttributeToBarriers(ingest_times, barriers);
  for (size_t i = 0; i < ingest_times.size(); ++i) {
    p.update_ms.push_back(*latencies[i] * 1e3);
    p.update_windows.push_back({ingest_times[i].start, ingest_times[i].start + *latencies[i]});
  }
  p.driver_stats = driver.stats();
  return p;
}

// max/min promotions per lane worker (shed replays and fast-path
// pseudo-lanes excluded).
double LaneSkew(const std::vector<Promotion>& promotions) {
  std::vector<double> per_lane(kShards, 0.0);
  for (const Promotion& p : promotions) {
    if (p.lane < kShards) {
      per_lane[p.lane] += 1.0;
    }
  }
  const double lo = *std::min_element(per_lane.begin(), per_lane.end());
  const double hi = *std::max_element(per_lane.begin(), per_lane.end());
  return hi / std::max(lo, 1.0);
}

struct Checked {
  ReplayResult replay;
  double lane_skew = 0.0;
  uint64_t rebuilds = 0;
};

template <bool kTraced>
Checked RunChecked(const Inputs& in, const Args& args, TraceLog* log, TimedEnv* env,
                   size_t replay_threads, Phase* phase, std::vector<double>* setup_seconds,
                   Outcome* out) {
  // A fresh directory per set-up, named so no two runs or phases share one.
  static int instance = 0;
  std::vector<std::string> dirs(setup_seconds != nullptr ? kSetupRuns : 1);
  for (std::string& dir : dirs) {
    dir = args.work_dir + "/pr-sharded-rw-" + std::to_string(getpid()) + "-" +
          std::to_string(instance++);
    std::filesystem::remove_all(dir);
  }
  std::unique_ptr<System<kTraced>> system =
      SetUp(static_cast<int>(dirs.size()), setup_seconds, [&](int r) {
        return std::make_unique<System<kTraced>>(in.initial, log, dirs[r], env);
      });
  PrintConfig("checkpoint_dir", dirs.back());
  // The set-up's baseline checkpoint is not part of the timed phase.
  const graphbolt::EngineStats before = system->driver->stats();
  if (env != nullptr) {
    env->ResetCounters();
  }
  *phase = RunPhase(*system, in, args.seconds);
  phase->driver_stats.checkpoints_written -= before.checkpoints_written;
  phase->driver_stats.checkpoint_seconds -= before.checkpoint_seconds;
  phase->peak_rss_mb = PeakRssMb();
  system->driver->Stop();
  const std::vector<double> served = system->engine.values();
  const uint64_t served_edges = system->graph.num_edges();
  Checked checked;
  checked.lane_skew = LaneSkew(system->promotions);
  checked.rebuilds = system->graph.adaptive_rebuilds();
  std::vector<Promotion> promotions = std::move(system->promotions);
  system.reset();
  for (const std::string& dir : dirs) {
    std::filesystem::remove_all(dir);
  }

  std::vector<const MutationBatch*> order;
  for (const Promotion& p : promotions) {
    order.push_back(&p.batch);
  }
  const ReplayResult replay =
      ReplayPageRank(in.initial, order, served, served_edges, replay_threads);
  if (!replay.match) {
    out->Fail("pr-sharded-rw: " + replay.why);
  }
  checked.replay = replay;
  out->attempted += phase->attempted;
  out->failed += phase->failed;
  return checked;
}

}  // namespace

Outcome RunPrShardedRw(const Args& args) {
  PrintConfig("graph", "rmat 10000 vertices / 120000 edges (seed 101), 50% loaded");
  PrintConfig("engine", "GraphBoltEngine<PageRank> tolerance 1e-4, 10 iterations");
  PrintConfig("driver", "ShardedDriver shards=4 batch_size=1024 overflow=block coalesce=1 "
                        "fast_path=0 bg_compaction=0 async_mode=off, Checkpointer every 8 "
                        "batches + WAL");
  PrintConfig("load", "open loop, 2 producer sessions: IngestBatch(256, 60% adds), no "
                      "barriers; 1 reader: QuerySnapshot");
  PrintConfig("open_loop_rate_per_s",
              "producers 2 x " + std::to_string(static_cast<int>(kProducerRate)) +
                  " mutations, reader " + std::to_string(static_cast<int>(kReaderRate)) +
                  " QuerySnapshot");

  const Inputs in = MakeInputs(args.seed, args.seconds);
  ResetPeakRss();
  std::filesystem::create_directories(args.work_dir);
  Outcome out;
  Phase untraced;
  if (!args.trace) {
    std::vector<double> setups;
    RunChecked<false>(in, args, nullptr, nullptr, 0, &untraced, &setups, &out);
    AddEndToEndMetrics(untraced, Quantile(setups, 0.5), &out);
    return out;
  }
  // Traced run: an untraced phase (for trace.overhead), then the traced one,
  // each over half the time.
  Args half = args;
  half.seconds = args.seconds / 2.0;
  RunChecked<false>(in, half, nullptr, nullptr, 0, &untraced, nullptr, &out);
  TraceLog log;
  TimedEnv env;
  Phase traced;
  const Checked checked =
      RunChecked<true>(in, half, &log, &env, args.pool_threads, &traced, nullptr, &out);
  const StorageCounters io = env.counters();
  AddLayerMetrics(traced,
                  {.log = &log,
                   .storage = &io,
                   .untraced_mutations_per_second = untraced.mutations_per_second(),
                   .pool_replay = &checked.replay,
                   .lane_skew = checked.lane_skew,
                   .adaptive_rebuilds = checked.rebuilds},
                  &out);
  return out;
}

}  // namespace perfbench

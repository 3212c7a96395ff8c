// pr-batch: GraphBoltEngine<PageRank> on a 50k-vertex / 600k-edge R-MAT
// surrogate behind a single-lane StreamDriver. One closed-loop producer
// runs IngestBatch(1024) then PrepQuery, batch after batch, so almost all
// of an update's latency is dependency-driven refinement. No fast path, no
// shards, no durability.
//
// The graph is a quarter of the 200k / 2.4M first planned: at that size a
// batch took ~290 ms, too few batches for a supported p90 in a run, and
// runs of one seed spread 12-14% in mutations/s; at this size 2-5%.
#include <cmath>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/driver/stream_driver.h"
#include "src/graph/generators.h"
#include "src/stream/update_stream.h"

namespace perfbench {
namespace {

using graphbolt::MutationBatch;

constexpr graphbolt::VertexId kVertices = 50000;
constexpr graphbolt::EdgeIndex kEdges = 600000;
// The dataset (the loaded half and the held-back half) is fixed, as a real
// graph would be; --seed picks the mutation stream.
constexpr uint64_t kGraphSeed = 201;
constexpr size_t kBatchSize = 1024;
constexpr double kAddFraction = 0.6;
// Batches generated ahead of the run: about three times what the producer
// gets through per second at the time of writing (12-13 per second). A faster program that
// runs out ends its timed phase early and reports the rate it reached.
constexpr double kBatchesPerSecond = 40.0;
constexpr int kSetupRuns = 3;

struct Inputs {
  graphbolt::EdgeList initial;
  std::vector<MutationBatch> batches;
};

// The paper's §5.1 methodology: load half of the edges, stream the rest as
// additions mixed with deletions of present edges (60/40). Deletions are
// sampled against a shadow graph that applies every generated batch, so
// the stream is the same whatever the program does with it.
Inputs MakeInputs(uint64_t seed, double seconds) {
  graphbolt::StreamSplit split = graphbolt::SplitForStreaming(
      graphbolt::GenerateRmat(kVertices, kEdges, {.seed = kGraphSeed}), 0.5, kGraphSeed + 1);
  Inputs in;
  in.initial = std::move(split.initial);
  graphbolt::MutableGraph shadow(in.initial);
  graphbolt::UpdateStream stream(std::move(split.held_back), seed);
  const auto count = static_cast<size_t>(std::ceil(seconds * kBatchesPerSecond));
  for (size_t i = 0; i < count; ++i) {
    MutationBatch batch = stream.NextBatch(shadow, {.size = kBatchSize, .add_fraction = kAddFraction});
    shadow.ApplyBatch(batch);
    in.batches.push_back(std::move(batch));
  }
  return in;
}

// One set-up: the graph, InitialCompute, the driver.
template <bool kTraced>
struct System {
  using Driven = std::conditional_t<kTraced, TracedEngine<PageRankEngine>, PageRankEngine>;

  System(const graphbolt::EdgeList& initial, TraceLog* log)
      : graph(initial), engine(MakePageRankEngine(&graph)), traced(&engine, log) {
    driven()->InitialCompute();
    driver = std::make_unique<graphbolt::StreamDriver<Driven>>(
        driven(), PinnedStreamOptions<Driven>(/*fast_path=*/false));
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
  std::unique_ptr<graphbolt::StreamDriver<Driven>> driver;  // destroyed first
};

template <bool kTraced>
Phase RunPhase(System<kTraced>& system, const Inputs& in, double seconds, size_t* consumed) {
  auto& driver = *system.driver;
  Phase p;
  p.start = Now();
  const double deadline = p.start + seconds;
  double end = p.start;
  size_t i = 0;
  for (; i < in.batches.size() && Now() < deadline; ++i) {
    const MutationBatch& batch = in.batches[i];
    const double start = Now();
    const size_t accepted = driver.IngestBatch(batch);
    const double ingested = Now();
    driver.PrepQuery();
    end = Now();
    p.admitted += accepted;
    p.attempted += 2;
    p.failed += (accepted < batch.size() ? 1 : 0) + (driver.healthy() ? 0 : 1);
    p.update_ms.push_back((end - start) * 1e3);
    p.update_windows.push_back({start, end});
    p.query_ms.push_back((end - ingested) * 1e3);
    p.barrier_ms.push_back((end - ingested) * 1e3);
    p.ingest_us.push_back((ingested - start) * 1e6);
  }
  p.wall_seconds = end - p.start;
  p.driver_stats = driver.stats();
  *consumed = i;
  return p;
}

// Runs one timed phase on a fresh set-up, then checks what it served
// against a bare-engine replay of the same batches (on `replay_threads`
// workers, 0 = the program's own). Returns the replay.
template <bool kTraced>
ReplayResult RunChecked(const Inputs& in, const Args& args, TraceLog* log, size_t replay_threads,
                  Phase* phase, std::vector<double>* setup_seconds, uint64_t* rebuilds,
                  Outcome* out) {
  std::unique_ptr<System<kTraced>> system =
      SetUp(setup_seconds != nullptr ? kSetupRuns : 1, setup_seconds,
            [&](int) { return std::make_unique<System<kTraced>>(in.initial, log); });
  size_t consumed = 0;
  *phase = RunPhase(*system, in, args.seconds, &consumed);
  phase->peak_rss_mb = PeakRssMb();
  const std::vector<double> served = system->engine.values();
  const uint64_t served_edges = system->graph.num_edges();
  *rebuilds = system->graph.adaptive_rebuilds();
  system.reset();

  std::vector<const MutationBatch*> applied;
  for (size_t i = 0; i < consumed; ++i) {
    applied.push_back(&in.batches[i]);
  }
  const ReplayResult replay =
      ReplayPageRank(in.initial, applied, served, served_edges, replay_threads);
  if (!replay.match) {
    out->Fail("pr-batch: " + replay.why);
  }
  out->attempted += phase->attempted;
  out->failed += phase->failed;
  return replay;
}

}  // namespace

Outcome RunPrBatch(const Args& args) {
  PrintConfig("graph", "rmat 50000 vertices / 600000 edges (seed 201), 50% loaded");
  PrintConfig("engine", "GraphBoltEngine<PageRank> tolerance 1e-4, 10 iterations");
  PrintConfig("driver", "StreamDriver batch_size=1024 overflow=block coalesce=1 fast_path=0 "
                        "bg_compaction=0 async_mode=off");
  PrintConfig("load", "closed loop, 1 producer: IngestBatch(1024, 60% adds) + PrepQuery");

  const Inputs in = MakeInputs(args.seed, args.seconds);
  ResetPeakRss();
  PrintConfig("batches_generated", static_cast<double>(in.batches.size()));
  Outcome out;
  Phase untraced;
  uint64_t rebuilds = 0;
  if (!args.trace) {
    std::vector<double> setups;
    RunChecked<false>(in, args, nullptr, 0, &untraced, &setups, &rebuilds, &out);
    AddEndToEndMetrics(untraced, Quantile(setups, 0.5), &out);
    return out;
  }
  // Traced run: an untraced phase (for trace.overhead), then the traced one,
  // each over half the time.
  Args half = args;
  half.seconds = args.seconds / 2.0;
  RunChecked<false>(in, half, nullptr, 0, &untraced, nullptr, &rebuilds, &out);
  TraceLog log;
  Phase traced;
  // The program refines on one worker; replaying the same batches on the
  // machine's default pool gives parallel.speedup.
  const ReplayResult pool =
      RunChecked<true>(in, half, &log, args.pool_threads, &traced, nullptr, &rebuilds, &out);
  AddLayerMetrics(traced,
                  {.log = &log,
                   .untraced_mutations_per_second = untraced.mutations_per_second(),
                   .pool_replay = &pool,
                   .adaptive_rebuilds = rebuilds},
                  &out);
  return out;
}

}  // namespace perfbench

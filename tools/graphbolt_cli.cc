// graphbolt_cli: run any algorithm/engine combination on a graph file or a
// synthetic graph, stream mutation batches, and report per-batch latency
// and work. The adoption entry point for trying the library on real data:
//
//   graphbolt_cli --graph edges.txt --algo pagerank --batches 10 --batch-size 1000
//   graphbolt_cli --rmat-vertices 100000 --rmat-edges 1000000 --algo sssp
//                 --engine graphbolt --source 0 --output dists.txt
//
// Driver configuration goes through DriverConfig (src/shard/driver_config.h):
// one validated surface registered by DriverConfig::RegisterFlags and read
// back by FromCli. Every algorithm but tc streams through the driver
// (src/shard/sharded_driver.h) with --shards lanes (1 by default) and the
// layers the flags arm; tc streams straight into its engine.
//
// With --checkpoint-dir the stream journals through the global checkpointer
// (WAL + cadence checkpoints), first discarding any checkpoints, journal and
// shed log an earlier run left there; --verify-recovery then cold-recovers
// into a fresh engine afterwards and exits nonzero unless the recovered
// values match the live ones — bitwise with one worker thread, within a
// relative 1e-9 with more (parallel refine applies floating-point scatter
// contributions in schedule order; see docs/INTERNALS.md §10). The recovery
// always runs on a one-lane driver, whatever --shards the live run used:
// every lane count restores every other's checkpoints.
//
// The sentinel layer (docs/INTERNALS.md §6) is armed by --quarantine-dir
// (admission control + dead-letter WAL; tune with --max-batch-edges, demo
// with --poison-batches), --watchdog-ms (stall watchdog), and the
// --overflow family. Under --shards N the watchdog heartbeats per lane, the
// shed policies divert to the shared sequence-tagged shed log, and degrade
// coordinates stale reads across lanes.
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <string>

#include "src/graphbolt.h"
#include "src/parallel/task_arena.h"
#include "src/util/cli.h"

namespace graphbolt {
namespace {

struct CliConfig {
  std::string engine;
  uint32_t iterations;
  bool convergence;
  double tolerance;
  uint32_t history;
  size_t batches;
  double add_fraction;
  VertexId source;
  std::string output;
  bool verify_recovery;
  size_t poison_batches;
  DriverConfig driver;  // the consolidated driver surface
};

// Writes one value per line ("vertex value..."). Floating-point values are
// written with max_digits10 significant digits (see the --output writer),
// so they read back to the same bits and `cmp` of two outputs compares
// values bitwise.
template <typename Value>
void WriteScalar(std::ofstream& out, VertexId v, const Value& value) {
  out << v << " " << value << "\n";
}

template <typename T, size_t N>
void WriteScalar(std::ofstream& out, VertexId v, const std::array<T, N>& value) {
  out << v;
  for (const T& x : value) {
    out << " " << x;
  }
  out << "\n";
}

// Recovered-vs-live value comparison. Serial refine is deterministic, so
// with one worker the match must be bitwise (rel = 0). With more workers
// the engines' scatter phases (atomic floating-point aggregation in push
// loops) apply contributions in schedule order, so the replayed run can
// land a few ulps away from the live one; those compare under a relative
// tolerance. Integer-valued algorithms are exact either way.
inline bool ScalarClose(double a, double b, double rel) {
  if (a == b) {
    return true;
  }
  const double diff = a < b ? b - a : a - b;
  const double ma = a < 0 ? -a : a;
  const double mb = b < 0 ? -b : b;
  return diff <= rel * (ma > mb ? ma : mb);
}

template <typename T>
bool ValueClose(const T& a, const T& b, double /*rel*/) {
  return a == b;
}
inline bool ValueClose(const double& a, const double& b, double rel) {
  return ScalarClose(a, b, rel);
}
inline bool ValueClose(const float& a, const float& b, double rel) {
  return ScalarClose(a, b, rel);
}
template <typename T, size_t N>
bool ValueClose(const std::array<T, N>& a, const std::array<T, N>& b, double rel) {
  for (size_t i = 0; i < N; ++i) {
    if (!ValueClose(a[i], b[i], rel)) {
      return false;
    }
  }
  return true;
}

// Cold recovery on a one-lane driver + diff against the live engine. The
// checkpointer protocol is the same at every lane count, so this restores a
// run of any --shards.
template <typename Engine, typename MakeEngine>
int VerifyRecovery(Engine& engine, MakeEngine&& make_engine, MutableGraph& graph,
                   const DriverConfig& driver_config) {
  Timer recovery;
  MutableGraph cold_graph;
  Engine cold = make_engine(&cold_graph);
  Checkpointer<Engine> restorer(&cold, &cold_graph,
                                {.directory = driver_config.checkpoint_dir,
                                 .cadence_batches = driver_config.checkpoint_every});
  StreamDriver<Engine> cold_driver(&cold, {}, &restorer);
  if (!cold_driver.Recover()) {
    std::printf("recovery FAILED: no valid checkpoint in %s\n",
                driver_config.checkpoint_dir.c_str());
    return 1;
  }
  cold_driver.Stop();
  if (cold.values().size() != engine.values().size()) {
    std::printf("recovery FAILED: %zu recovered values vs %zu live\n", cold.values().size(),
                engine.values().size());
    return 1;
  }
  const bool serial = TaskArena::Instance().num_threads() == 1;
  const double rel = serial ? 0.0 : 1e-9;
  size_t mismatches = 0;
  for (size_t v = 0; v < cold.values().size(); ++v) {
    if (!ValueClose(cold.values()[v], engine.values()[v], rel)) {
      ++mismatches;
    }
  }
  if (mismatches > 0 || cold_graph.num_edges() != graph.num_edges()) {
    std::printf("recovery FAILED: %zu value mismatches (rel tol %.1e), %llu vs %llu edges\n",
                mismatches, rel, static_cast<unsigned long long>(cold_graph.num_edges()),
                static_cast<unsigned long long>(graph.num_edges()));
    return 1;
  }
  std::printf("recovery verified: %zu values %s (%.2f ms)\n", cold.values().size(),
              serial ? "bitwise identical" : "within 1e-9 relative (parallel refine)",
              recovery.Seconds() * 1e3);
  return 0;
}

void PrintFastPath(const EngineStats& stats) {
  std::printf("fast path: %llu safe applied in place, %llu escalated to refinement\n",
              static_cast<unsigned long long>(stats.fastpath_safe_applied),
              static_cast<unsigned long long>(stats.fastpath_unsafe_escalated));
}

void PrintAsync(const EngineStats& stats) {
  std::printf("async: %llu entries / %llu reconciles, %llu async applies, %llu steps "
              "(%llu priority tasks), %llu async-fresh queries, residual %.3e\n",
              static_cast<unsigned long long>(stats.async_entries),
              static_cast<unsigned long long>(stats.async_reconciles),
              static_cast<unsigned long long>(stats.async_applies),
              static_cast<unsigned long long>(stats.async_steps),
              static_cast<unsigned long long>(stats.tasks_priority),
              static_cast<unsigned long long>(stats.async_fresh_queries),
              stats.async_residual);
}

void PrintDurability(const EngineStats& stats, const DriverConfig& driver) {
  std::printf("durability: %llu checkpoints (%.2f ms), %llu WAL appends, %llu shed, dir %s\n",
              static_cast<unsigned long long>(stats.checkpoints_written),
              stats.checkpoint_seconds * 1e3, static_cast<unsigned long long>(stats.wal_appends),
              static_cast<unsigned long long>(stats.mutations_shed_to_wal),
              driver.checkpoint_dir.c_str());
}

// Streams through the driver with --shards lanes and the durability,
// sentinel, and fast-path layers the flags arm: one session offers the
// stream one mutation at a time, so a tenant quota admits a prefix of a
// batch, and the query barrier closes each batch. `make_engine` constructs
// an identically-configured engine on a new graph for --verify-recovery.
template <typename Engine, typename MakeEngine>
int Stream(Engine& engine, MakeEngine&& make_engine, MutableGraph& graph, StreamSplit& split,
           const CliConfig& config) {
  const bool durable = !config.driver.checkpoint_dir.empty();
  const bool sentinel = !config.driver.quarantine_dir.empty() ||
                        config.driver.watchdog_stall_seconds > 0.0 ||
                        config.driver.overflow == OverflowPolicy::kShedOldest ||
                        config.driver.overflow == OverflowPolicy::kDegrade;

  Timer total;
  engine.InitialCompute();
  std::printf("initial compute: %.2f ms, %llu edge computations, %u iterations\n",
              engine.stats().seconds * 1e3,
              static_cast<unsigned long long>(engine.stats().edges_processed),
              engine.stats().iterations);

  std::optional<Checkpointer<Engine>> checkpointer;
  if (durable) {
    checkpointer.emplace(&engine, &graph,
                         typename Checkpointer<Engine>::Options{
                             .directory = config.driver.checkpoint_dir,
                             .cadence_batches = config.driver.checkpoint_every});
    // The stream restarts sequence numbers at 0, so a rerun into the same
    // directory must not recover into the previous run's checkpoints.
    checkpointer->DiscardLineage();
  }
  {
    StreamDriver<Engine> driver(&engine, config.driver, durable ? &*checkpointer : nullptr);
    if (durable) {
      driver.CheckpointNow();
    }
    auto session = driver.OpenSession("cli");

    // Batch generation inspects a graph for deletable edges. It reads a
    // private copy that replays every admitted mutation, not `graph`: with
    // --bg-compaction lane 0 compacts `graph` between batches, under the
    // driver's engine lock, which this thread does not hold.
    MutableGraph shadow(split.initial);
    UpdateStream stream(split.held_back, 99);
    for (size_t b = 0; b < config.batches; ++b) {
      const MutationBatch batch = stream.NextBatch(
          shadow, {.size = config.driver.batch_size, .add_fraction = config.add_fraction});
      const EngineStats before = driver.stats();
      MutationBatch admitted;
      for (const EdgeMutation& m : batch) {
        // Under --fast-path each mutation classifies against the dependency
        // store and splices in place when safe, bypassing the lanes; the
        // rest wait in their home lane's gutter for the flush below.
        if (config.driver.fast_path ? session.IngestFast(m) : session.Ingest(m)) {
          admitted.push_back(m);
        }
      }
      shadow.ApplyBatch(admitted);
      const size_t accepted = admitted.size();
      driver.Flush();
      driver.PrepQuery();
      // The driver sums every lane's promotions, so the difference is this
      // batch's work at any --shards, and zero when nothing was admitted.
      const EngineStats after = driver.stats();
      std::printf("batch %zu: %zu/%zu mutations, refine %.2f ms, structure %.2f ms, "
                  "%llu edge comps\n",
                  b + 1, accepted, batch.size(), (after.seconds - before.seconds) * 1e3,
                  (after.mutation_seconds - before.mutation_seconds) * 1e3,
                  static_cast<unsigned long long>(after.edges_processed -
                                                  before.edges_processed));
    }
    // Demo of the poison path: deliberately malformed batches (NaN weights)
    // that admission control must bounce into the dead-letter WAL.
    if (config.poison_batches > 0 && !config.driver.quarantine_dir.empty()) {
      const float nan = std::numeric_limits<float>::quiet_NaN();
      for (size_t p = 0; p < config.poison_batches; ++p) {
        MutationBatch poison = {EdgeMutation::Add(1, static_cast<VertexId>(2 + p), nan)};
        session.IngestBatch(poison);
      }
      std::printf("poison: %zu bad batches offered, %llu parked in %s\n", config.poison_batches,
                  static_cast<unsigned long long>(driver.quarantined_batches()),
                  driver.quarantine()->path().c_str());
    }
    driver.Stop();
    const EngineStats stats = driver.stats();
    std::printf("shards: %llu lanes, %llu batches staged, "
                "%llu cross-shard mutations, %llu sessions\n",
                static_cast<unsigned long long>(stats.shard_lanes),
                static_cast<unsigned long long>(stats.shard_batches_staged),
                static_cast<unsigned long long>(stats.cross_shard_mutations),
                static_cast<unsigned long long>(stats.sessions_opened));
    if (config.driver.fast_path) {
      PrintFastPath(stats);
    }
    if (durable) {
      PrintDurability(stats, config.driver);
    }
    if (sentinel) {
      std::printf(
          "sentinel: %llu quarantined batches (%llu mutations), %llu shed-oldest evictions, "
          "%llu degraded entries / %llu degraded queries, %llu stalls / %llu auto-recoveries, "
          "apply EWMA %.2f ms\n",
          static_cast<unsigned long long>(stats.batches_quarantined),
          static_cast<unsigned long long>(stats.mutations_quarantined),
          static_cast<unsigned long long>(stats.shed_oldest_evictions),
          static_cast<unsigned long long>(stats.degraded_entries),
          static_cast<unsigned long long>(stats.degraded_queries),
          static_cast<unsigned long long>(stats.stalls_detected),
          static_cast<unsigned long long>(stats.watchdog_recoveries),
          stats.apply_ewma_seconds * 1e3);
    }
    if (config.driver.async_mode != AsyncModePolicy::kOff) {
      PrintAsync(stats);
    }
  }
  std::printf("total wall time: %.2f ms; final graph: %u vertices, %llu edges\n",
              total.Seconds() * 1e3, graph.num_vertices(),
              static_cast<unsigned long long>(graph.num_edges()));

  if (!config.output.empty()) {
    std::ofstream out(config.output);
    if (!out) {
      std::printf("cannot write %s\n", config.output.c_str());
      return 1;
    }
    out.precision(std::numeric_limits<double>::max_digits10);
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      WriteScalar(out, v, engine.values()[v]);
    }
    std::printf("values written to %s\n", config.output.c_str());
  }
  if (config.verify_recovery) {
    return VerifyRecovery(engine, make_engine, graph, config.driver);
  }
  return 0;
}

template <typename Algo>
int Dispatch(Algo algo, MutableGraph& graph, StreamSplit& split, const CliConfig& config) {
  // `algo` is copied into both the live engine and the make-lambda so
  // --verify-recovery can construct an identically-configured cold engine.
  if (config.engine == "graphbolt") {
    const typename GraphBoltEngine<Algo>::Options options{.max_iterations = config.iterations,
                                                          .run_to_convergence = config.convergence,
                                                          .history_size = config.history};
    GraphBoltEngine<Algo> engine(&graph, algo, options);
    auto make = [=](MutableGraph* g) { return GraphBoltEngine<Algo>(g, algo, options); };
    return Stream(engine, make, graph, split, config);
  }
  if (config.engine == "graphbolt-compact") {
    using Engine = GraphBoltEngine<Algo, CompactDependencyStore<typename Algo::Aggregate>>;
    const typename Engine::Options options{.max_iterations = config.iterations,
                                           .run_to_convergence = config.convergence,
                                           .history_size = config.history};
    Engine engine(&graph, algo, options);
    auto make = [=](MutableGraph* g) { return Engine(g, algo, options); };
    return Stream(engine, make, graph, split, config);
  }
  if (config.engine == "reset") {
    const typename ResetEngine<Algo>::Options options{.max_iterations = config.iterations,
                                                      .run_to_convergence = config.convergence};
    ResetEngine<Algo> engine(&graph, algo, options);
    auto make = [=](MutableGraph* g) { return ResetEngine<Algo>(g, algo, options); };
    return Stream(engine, make, graph, split, config);
  }
  if (config.engine == "ligra") {
    const typename LigraEngine<Algo>::Options options{.max_iterations = config.iterations,
                                                      .run_to_convergence = config.convergence};
    LigraEngine<Algo> engine(&graph, algo, options);
    auto make = [=](MutableGraph* g) { return LigraEngine<Algo>(g, algo, options); };
    return Stream(engine, make, graph, split, config);
  }
  std::printf("unknown engine: %s (graphbolt | graphbolt-compact | reset | ligra)\n", config.engine.c_str());
  return 1;
}

// `graphbolt_cli fsck <dir> [--repair]` — offline integrity check over a
// durability directory: the checkpoint chain, the global journal, the shed
// log, the quarantine dead-letter log, and any other `*.wal` (older builds
// wrote per-lane `shard-<i>.wal` lineages), verified with the same
// predicates recovery uses (src/fault/fsck.h).
// Exit 0 = every artifact would load; 1 = corruption found (and, with
// --repair, anything left unrepairable); 2 = usage error.
int FsckMain(int argc, char** argv) {
  std::string dir;
  bool repair = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--repair") {
      repair = true;
    } else if (!arg.empty() && arg[0] != '-' && dir.empty()) {
      dir = arg;
    } else {
      std::printf("usage: graphbolt_cli fsck <checkpoint-dir> [--repair]\n");
      return 2;
    }
  }
  if (dir.empty()) {
    std::printf("usage: graphbolt_cli fsck <checkpoint-dir> [--repair]\n");
    return 2;
  }
  FsckReport report = FsckDirectory(dir);
  std::printf("fsck %s: %llu checkpoints (%llu valid), %llu WAL lineages "
              "(%llu intact records)\n",
              dir.c_str(),
              static_cast<unsigned long long>(report.checkpoints_checked),
              static_cast<unsigned long long>(report.checkpoints_valid),
              static_cast<unsigned long long>(report.wals_checked),
              static_cast<unsigned long long>(report.wal_records_valid));
  for (const FsckIssue& issue : report.issues) {
    const char* kind = issue.kind == FsckIssue::Kind::kCorruptCheckpoint
                           ? "corrupt checkpoint"
                           : issue.kind == FsckIssue::Kind::kCorruptWal
                                 ? "corrupt WAL"
                                 : "orphan tmp";
    std::printf("  %s: %s (%s)\n", kind, issue.path.c_str(), issue.detail.c_str());
  }
  if (report.clean()) {
    std::printf("fsck: clean\n");
    return 0;
  }
  if (!repair) {
    std::printf("fsck: %zu issue(s); rerun with --repair to quarantine/truncate\n",
                report.issues.size());
    return 1;
  }
  const size_t repaired = FsckRepair(report);
  FsckReport after = FsckDirectory(dir);
  std::printf("fsck: repaired %zu of %zu issue(s); directory is now %s\n",
              repaired, report.issues.size(), after.clean() ? "clean" : "STILL CORRUPT");
  return after.clean() ? 0 : 1;
}

// `graphbolt_cli fsck-selftest <dir>` (hidden) — the cli_fsck ctest. Builds
// a real durability directory (two checkpoints, a journal, and a
// `shard-0.wal` lane lineage like those older builds left behind, since
// fsck still verifies every `*.wal`), seeds the three corruption classes
// (checkpoint bit flip, WAL bit flip, orphaned .tmp), then asserts the full
// contract: fsck detects exactly what it should, --repair narrows the
// directory to a loadable state, a second pass is clean, and the runtime's
// own RestoreLatest agrees by restoring the surviving checkpoint.
int FsckSelftestMain(const std::string& dir) {
  TaskArena::SetNumThreads(1);
  using Engine = GraphBoltEngine<PageRank>;
  StorageEnv* env = StorageEnv::Default();
  env->CreateDirectories(dir);
  {
    EdgeList initial = GenerateRmat(128, 500, {.seed = 5});
    MutableGraph graph(initial);
    Engine engine(&graph, PageRank{});
    engine.InitialCompute();
    Checkpointer<Engine> ckpt(&engine, &graph,
                              {.directory = dir, .cadence_batches = 0, .keep = 2});
    MutationBatch batch;
    batch.push_back(EdgeMutation::Add(1, 2));
    if (!ckpt.WriteCheckpoint(1)) return 1;
    if (!ckpt.AppendWal(2, batch)) return 1;
    engine.ApplyMutations(batch);
    if (!ckpt.WriteCheckpoint(2)) return 1;
    WriteAheadLog lane;
    lane.Open(dir + "/shard-0.wal", env);
    if (!lane.Append(2, batch)) return 1;
  }
  if (!FsckDirectory(dir).clean()) {
    std::printf("fsck-selftest: pristine directory flagged\n");
    return 1;
  }
  // Seed the three corruption classes.
  const std::string newest = dir + "/checkpoint-00000000000000000002.ckpt";
  if (!FaultyEnv::FlipByteOnDisk(newest, 120, 0x20) ||
      !FaultyEnv::FlipByteOnDisk(dir + "/shard-0.wal", 25, 0x04)) {
    std::printf("fsck-selftest: could not seed bit flips\n");
    return 1;
  }
  if (auto tmp = env->NewWritableFile(newest + ".tmp", /*truncate=*/true)) {
    tmp->Write("x", 1);
    tmp->Close();
  }
  FsckReport before = FsckDirectory(dir);
  if (before.issues.size() != 3) {
    std::printf("fsck-selftest: expected 3 issues, found %zu\n", before.issues.size());
    return 1;
  }
  if (FsckRepair(before) != 3 || !FsckDirectory(dir).clean()) {
    std::printf("fsck-selftest: repair did not converge to clean\n");
    return 1;
  }
  // The runtime must agree with fsck: restore lands on the survivor.
  MutableGraph graph;
  Engine engine(&graph, PageRank{});
  Checkpointer<Engine> ckpt(&engine, &graph,
                            {.directory = dir, .cadence_batches = 0, .keep = 2});
  uint64_t seq = 0;
  if (!ckpt.RestoreLatest(&seq) || seq != 1) {
    std::printf("fsck-selftest: post-repair restore failed (seq %llu)\n",
                static_cast<unsigned long long>(seq));
    return 1;
  }
  std::printf("fsck-selftest: ok (3 seeded corruptions detected, repaired, restored seq 1)\n");
  return 0;
}

int Main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "fsck") {
    return FsckMain(argc - 2, argv + 2);
  }
  if (argc >= 3 && std::string(argv[1]) == "fsck-selftest") {
    return FsckSelftestMain(argv[2]);
  }
  ArgParser args("graphbolt_cli: streaming graph analytics runner");
  args.AddString("graph", "", "edge-list file; empty = synthetic R-MAT");
  args.AddInt("rmat-vertices", 50000, "synthetic graph vertices");
  args.AddInt("rmat-edges", 500000, "synthetic graph edges");
  args.AddBool("weighted", true, "assign random weights to synthetic edges");
  args.AddString("algo", "pagerank",
                 "pagerank | ppr | lp | coem | bp | cf | sssp | bfs | cc | widest | reach | tc");
  args.AddString("engine", "graphbolt", "graphbolt | graphbolt-compact | reset | ligra");
  args.AddInt("iterations", 10, "max iterations");
  args.AddBool("convergence", false, "stop when values stop changing");
  args.AddDouble("tolerance", 1e-6, "selective-scheduling change tolerance");
  args.AddInt("history", 1 << 30, "dependency history size (horizontal pruning)");
  args.AddInt("batches", 5, "mutation batches to stream");
  args.AddDouble("add-fraction", 0.7, "fraction of mutations that are additions");
  args.AddDouble("load-fraction", 0.5, "fraction of edges loaded before streaming");
  args.AddInt("source", 0, "source vertex for sssp/bfs/widest/ppr");
  args.AddInt("threads", 0, "worker threads (0 = hardware)");
  args.AddString("output", "", "write final per-vertex values to this file (full precision)");
  args.AddBool("verify-recovery", false,
               "after streaming, cold-recover from --checkpoint-dir and compare with the "
               "live values: bitwise with one worker thread, within 1e-9 relative otherwise");
  args.AddInt("poison-batches", 0,
              "offer this many deliberately malformed batches (demo of --quarantine-dir)");
  // The canonical driver surface: --shards, --batch-size, --flush-ms,
  // --max-pending-batches, --overflow, --coalesce, --bg-compaction,
  // --fast-path, --async-mode, --checkpoint-dir, --checkpoint-every,
  // --scrub-interval-s, --quarantine-dir, --max-batch-edges, --watchdog-ms,
  // --default-quota, --tenant-quotas.
  DriverConfig::RegisterFlags(args);
  if (!args.Parse(argc, argv)) {
    return 1;
  }

  DriverConfig driver_config;
  std::string config_error;
  if (!driver_config.FromCli(args, &config_error)) {
    std::printf("driver config: %s\n", config_error.c_str());
    return 1;
  }
  if (args.GetBool("verify-recovery") && driver_config.checkpoint_dir.empty()) {
    std::printf("--verify-recovery requires --checkpoint-dir\n");
    return 1;
  }

  if (args.GetInt("threads") > 0) {
    TaskArena::SetNumThreads(static_cast<size_t>(args.GetInt("threads")));
  }

  EdgeList full;
  if (!args.GetString("graph").empty()) {
    bool ok = false;
    full = LoadEdgeListText(args.GetString("graph"), &ok);
    if (!ok) {
      return 1;
    }
  } else {
    full = GenerateRmat(static_cast<VertexId>(args.GetInt("rmat-vertices")),
                        static_cast<EdgeIndex>(args.GetInt("rmat-edges")),
                        {.seed = 1, .assign_random_weights = args.GetBool("weighted")});
  }
  std::printf("graph: %u vertices, %zu edges\n", full.num_vertices(), full.num_edges());
  const int64_t source = args.GetInt("source");
  if (source < 0 || source >= static_cast<int64_t>(full.num_vertices())) {
    std::printf("--source must be in [0, %u) (got %lld)\n", full.num_vertices(),
                static_cast<long long>(source));
    return 1;
  }

  StreamSplit split = SplitForStreaming(full, args.GetDouble("load-fraction"), 2);
  MutableGraph graph(split.initial);

  CliConfig config{
      .engine = args.GetString("engine"),
      .iterations = static_cast<uint32_t>(args.GetInt("iterations")),
      .convergence = args.GetBool("convergence"),
      .tolerance = args.GetDouble("tolerance"),
      .history = static_cast<uint32_t>(args.GetInt("history")),
      .batches = static_cast<size_t>(args.GetInt("batches")),
      .add_fraction = args.GetDouble("add-fraction"),
      .source = static_cast<VertexId>(source),
      .output = args.GetString("output"),
      .verify_recovery = args.GetBool("verify-recovery"),
      .poison_batches = static_cast<size_t>(args.GetInt("poison-batches")),
      .driver = driver_config,
  };

  const std::string algo = args.GetString("algo");
  const VertexId n = full.num_vertices();
  const double tol = config.tolerance;
  if (algo == "pagerank") {
    return Dispatch(PageRank(0.85, tol), graph, split, config);
  }
  if (algo == "ppr") {
    return Dispatch(PersonalizedPageRank({config.source}, n, 0.85, tol), graph, split, config);
  }
  if (algo == "lp") {
    return Dispatch(LabelPropagation<3>(n, 0.1, 7, tol), graph, split, config);
  }
  if (algo == "coem") {
    return Dispatch(CoEM(n, 0.05, 11, tol), graph, split, config);
  }
  if (algo == "bp") {
    return Dispatch(BeliefPropagation<3>(13, tol), graph, split, config);
  }
  if (algo == "cf") {
    return Dispatch(CollaborativeFiltering<4>(0.05, 17, tol), graph, split, config);
  }
  if (algo == "sssp" || algo == "bfs" || algo == "widest" || algo == "cc" ||
      algo == "reach") {
    config.convergence = true;
    config.iterations = std::max<uint32_t>(config.iterations, 512);
    if (algo == "sssp") {
      return Dispatch(Sssp(config.source), graph, split, config);
    }
    if (algo == "bfs") {
      return Dispatch(Bfs(config.source), graph, split, config);
    }
    if (algo == "widest") {
      return Dispatch(WidestPath(config.source), graph, split, config);
    }
    if (algo == "reach") {
      return Dispatch(MultiSourceReach({config.source}, n), graph, split, config);
    }
    return Dispatch(ConnectedComponents{}, graph, split, config);
  }
  if (algo == "tc") {
    TriangleCountingEngine engine(&graph);
    engine.InitialCompute();
    std::printf("initial triangles: %llu (%.2f ms)\n",
                static_cast<unsigned long long>(engine.count()), engine.stats().seconds * 1e3);
    UpdateStream stream(split.held_back, 99);
    for (size_t b = 0; b < config.batches; ++b) {
      const MutationBatch batch = stream.NextBatch(
          graph, {.size = config.driver.batch_size, .add_fraction = config.add_fraction});
      engine.ApplyMutations(batch);
      std::printf("batch %zu: triangles %llu, adjust %.2f ms\n", b + 1,
                  static_cast<unsigned long long>(engine.count()), engine.stats().seconds * 1e3);
    }
    return 0;
  }
  std::printf("unknown algorithm: %s\n", algo.c_str());
  return 1;
}

}  // namespace
}  // namespace graphbolt

int main(int argc, char** argv) { return graphbolt::Main(argc, argv); }

// ApplyBatch latency: rebuild-on-apply Csr (the pre-slack path) vs the
// in-place SlackCsr splice, swept over batch sizes 1e2..1e6 on two inputs —
// an R-MAT surrogate (skewed degrees, like the paper's graphs) and either a
// real edge list (GRAPHBOLT_REAL_GRAPH=<path>, text format) or an
// Erdős–Rényi surrogate (uniform degrees) when none is given. Results land
// in BENCH_mutation_throughput.json (see BenchJson in bench/harness.h) so
// successive runs form a perf trajectory.
//
// Expected shape: the old path pays O(V+E) per batch regardless of batch
// size, so small batches show the largest gap (>=10x for batches <= 1e3 on
// a 1e6-edge graph); at 1e6-edge batches the two converge since the splice
// rewrites most of the arena anyway.
//
// --smoke: tiny inputs, no timing table, no JSON. Asserts the O(batch)
// property on deterministic ApplyStats counters (spliced work must scale
// sublinearly in |E| and touched vertices must be bounded by the batch),
// plus a delete-heavy sweep asserting that background compaction keeps
// every ApplyBatch free of synchronous compaction (counters, then the
// median over interleaved pairs of the background/sync ratio of p99 apply
// cost, in one worker's CPU time). Exits nonzero on
// violation. Wired as the `perf`-labeled ctest. The timed sweep always runs
// with synchronous compaction.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "src/graph/io.h"
#include "src/graph/mutable_graph.h"
#include "src/parallel/task_arena.h"
#include "src/stream/update_stream.h"
#include "src/util/timer.h"

namespace graphbolt {
namespace {

// CPU time of the calling thread, in milliseconds.
double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) * 1e-6;
}

// The old MutableGraph::ApplyBatch body, verbatim in shape: full-V
// per-vertex edit arrays (the scratch cost the slack path eliminated) and a
// dual O(V+E) rebuild. Both timed regions are end-to-end ApplyBatch
// equivalents: batch normalization is inside each (it was the first step of
// the old ApplyBatch and still is of the new one).
class RebuildGraph {
 public:
  explicit RebuildGraph(const EdgeList& edges)
      : out_(Csr::FromEdges(edges.num_vertices(), edges.edges(), /*reverse=*/false)),
        in_(Csr::FromEdges(edges.num_vertices(), edges.edges(), /*reverse=*/true)) {}

  void Apply(const AppliedMutations& result) {
    const VertexId n = out_.num_vertices();
    std::vector<std::vector<VertexId>> out_deletes(n);
    std::vector<std::vector<std::pair<VertexId, Weight>>> out_adds(n);
    std::vector<std::vector<VertexId>> in_deletes(n);
    std::vector<std::vector<std::pair<VertexId, Weight>>> in_adds(n);
    for (const Edge& e : result.added) {
      out_adds[e.src].push_back({e.dst, e.weight});
      in_adds[e.dst].push_back({e.src, e.weight});
    }
    for (const Edge& e : result.deleted) {
      out_deletes[e.src].push_back(e.dst);
      in_deletes[e.dst].push_back(e.src);
    }
    for (auto& v : in_deletes) {
      std::sort(v.begin(), v.end());
    }
    for (auto& v : in_adds) {
      std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) { return a.first < b.first; });
    }
    out_.ApplyEdits(out_deletes, out_adds);
    in_.ApplyEdits(in_deletes, in_adds);
  }

  EdgeIndex num_edges() const { return out_.num_edges(); }

 private:
  Csr out_;
  Csr in_;
};

struct SweepPoint {
  size_t batch_size;
  size_t batches;  // scaled down as batches grow so the sweep stays minutes
};

constexpr SweepPoint kSweep[] = {
    {100, 8}, {1000, 8}, {10000, 5}, {100000, 3}, {1000000, 1},
};

// One (input graph, batch size) cell: streams `point.batches` identical
// mutation batches through both representations and reports mean latency.
void SweepInput(const char* label, const EdgeList& full, BenchJson& json) {
  StreamSplit split = SplitForStreaming(full, 0.5, /*seed=*/77);
  std::printf("\n%s: |V|=%u initial |E|=%zu\n", label, split.initial.num_vertices(),
              static_cast<size_t>(split.initial.num_edges()));
  std::printf("%-10s %14s %14s %9s\n", "batch", "rebuild(ms)", "slack(ms)", "speedup");
  for (const SweepPoint& point : kSweep) {
    MutableGraph graph(split.initial);
    RebuildGraph rebuild(split.initial);
    UpdateStream stream(split.held_back, /*seed=*/91);
    const BatchOptions options{.size = point.batch_size, .add_fraction = 0.5};
    double old_seconds = 0.0;
    double new_seconds = 0.0;
    for (size_t b = 0; b < point.batches; ++b) {
      const MutationBatch batch = stream.NextBatch(graph, options);
      Timer timer;
      const AppliedMutations applied = graph.NormalizeBatch(batch);
      rebuild.Apply(applied);
      old_seconds += timer.Seconds();
      timer.Reset();
      graph.ApplyBatch(batch);
      new_seconds += timer.Seconds();
    }
    const double old_ms = old_seconds * 1e3 / static_cast<double>(point.batches);
    const double new_ms = new_seconds * 1e3 / static_cast<double>(point.batches);
    std::printf("%-10zu %14.3f %14.3f %8.1fx\n", point.batch_size, old_ms, new_ms,
                old_ms / new_ms);
    json.Row()
        .Str("graph", label)
        .Num("initial_edges", static_cast<double>(split.initial.num_edges()))
        .Num("batch_size", static_cast<double>(point.batch_size))
        .Num("batches", static_cast<double>(point.batches))
        .Num("rebuild_ms", old_ms)
        .Num("slack_ms", new_ms)
        .Num("speedup", old_ms / new_ms);
  }
}

// --smoke: deterministic counter assertions, robust to machine load. The
// sublinearity proof: the same mutation stream applied to a 4x-larger graph
// must splice < 4x the edges (the rebuild path would do exactly 4x).
int Smoke() {
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::printf("SMOKE FAIL: %s\n", what);
      ++failures;
    }
  };
  auto run = [](EdgeIndex edges) {
    EdgeList full = GenerateRmat(2000, edges, {.seed = 9, .assign_random_weights = true});
    StreamSplit split = SplitForStreaming(full, 0.5, 10);
    MutableGraph graph(split.initial);
    UpdateStream stream(split.held_back, 11);
    uint64_t spliced = 0;
    uint64_t touched = 0;
    for (int b = 0; b < 6; ++b) {
      graph.ApplyBatch(stream.NextBatch(graph, {.size = 64, .add_fraction = 0.5}));
      spliced += graph.out().last_apply_stats().edges_spliced +
                 graph.in().last_apply_stats().edges_spliced;
      touched += graph.out().last_apply_stats().touched_vertices;
    }
    struct {
      uint64_t spliced, touched;
      EdgeIndex graph_edges;
    } r{spliced, touched, graph.num_edges()};
    return r;
  };
  // Delete-heavy compaction sweep: pure-delete batches shed edges fast
  // enough that the sync policy must compact inside ApplyBatch several
  // times. Under kBackground the same stream must never compact inside an
  // apply — slack is reclaimed by untimed MaintenanceStep calls between
  // batches — so the apply-latency tail loses the compaction spikes.
  // Deletes only, deliberately: adds relocate overflowing segments, and a
  // relocation strands the segment's old capacity as slack in one step —
  // a single hub add can jump slack by whole percentage points, which is
  // exactly the case the kForcedSyncSlack backstop exists for. A delete
  // can strand at most its own entry, so with maintenance keeping pace
  // the backstop is unreachable and the no-sync property is exact.
  struct ModeResult {
    double p99_ms = 0.0;
    uint64_t apply_compactions = 0;  // ApplyStats.compactions summed over batches
    uint64_t arena_shrinks = 0;      // applies after which a view's arena_used() fell
    SlackCsr::CompactionStats stats;
  };
  // 12k vertices on purpose: a sync compaction rewrites every vertex
  // segment, so its cost scales with V while a batch splice scales with
  // the batch — at this size the compaction spike is several times a
  // plain splice and the p99 comparison below measures structure, not
  // scheduler noise.
  auto run_mode = [](SlackCsr::CompactionMode mode) {
    EdgeList full = GenerateRmat(12000, 90000, {.seed = 21, .assign_random_weights = true});
    StreamSplit split = SplitForStreaming(full, 0.5, 22);
    MutableGraph graph(split.initial);
    graph.SetCompactionMode(mode);
    UpdateStream stream(split.held_back, 23);
    std::vector<double> batch_ms;
    ModeResult result;
    for (int b = 0; b < 25; ++b) {
      const MutationBatch batch = stream.NextBatch(graph, {.size = 1024, .add_fraction = 0.0});
      const EdgeIndex out_before = graph.out().arena_used();
      const EdgeIndex in_before = graph.in().arena_used();
      const double start_ms = ThreadCpuMs();
      graph.ApplyBatch(batch);
      batch_ms.push_back(ThreadCpuMs() - start_ms);
      result.apply_compactions += graph.out().last_apply_stats().compactions +
                                  graph.in().last_apply_stats().compactions;
      // A splice never shrinks the arena; only a compaction does.
      if (graph.out().arena_used() < out_before || graph.in().arena_used() < in_before) {
        ++result.arena_shrinks;
      }
      if (mode == SlackCsr::CompactionMode::kBackground) {
        while (graph.MaintenanceStep(1 << 14)) {
        }
      }
    }
    std::sort(batch_ms.begin(), batch_ms.end());
    result.p99_ms = batch_ms[batch_ms.size() * 99 / 100];
    result.stats = graph.compaction_stats();
    return result;
  };
  // Nine interleaved pairs, alternating which mode runs first, judged by
  // the median of the per-pair p99 ratios. The counters are deterministic
  // across pairs, but the p99 of 25 batches is their maximum, which on a
  // loaded machine one preemption, or one preempted worker the apply waits
  // for, inflated several-fold in wall time. So the sweep runs on one
  // worker and times each apply in the calling thread's CPU time, which a
  // preemption does not advance; the two runs of a pair are adjacent in
  // time and see nearly the same cache contention, and the median discards
  // up to four pairs that it still spoiled.
  const size_t workers = TaskArena::Instance().num_threads();
  TaskArena::SetNumThreads(1);
  constexpr int kPairs = 9;
  ModeResult sync_mode;
  ModeResult bg_mode;
  std::vector<double> ratios;
  std::vector<double> sync_p99s;
  std::vector<double> bg_p99s;
  for (int pair = 0; pair < kPairs; ++pair) {
    ModeResult s;
    ModeResult b;
    if (pair % 2 == 0) {
      s = run_mode(SlackCsr::CompactionMode::kSync);
      b = run_mode(SlackCsr::CompactionMode::kBackground);
    } else {
      b = run_mode(SlackCsr::CompactionMode::kBackground);
      s = run_mode(SlackCsr::CompactionMode::kSync);
    }
    if (pair == 0) {
      sync_mode = s;
      bg_mode = b;
    }
    ratios.push_back(b.p99_ms / s.p99_ms);
    sync_p99s.push_back(s.p99_ms);
    bg_p99s.push_back(b.p99_ms);
  }
  TaskArena::SetNumThreads(workers);
  auto median = [](std::vector<double> xs) {
    std::nth_element(xs.begin(), xs.begin() + xs.size() / 2, xs.end());
    return xs[xs.size() / 2];
  };
  const double median_ratio = median(ratios);
  sync_mode.p99_ms = median(sync_p99s);
  bg_mode.p99_ms = median(bg_p99s);
  expect(sync_mode.apply_compactions >= 2,
         "sync baseline compacts inside ApplyBatch on the delete-heavy stream");
  expect(bg_mode.apply_compactions == 0,
         "background mode: no ApplyBatch performed synchronous compaction");
  expect(bg_mode.stats.forced_sync_compactions == 0,
         "background mode: forced-sync backstop never fired");
  // Deterministic, unlike the p99 comparison below, and blind to the
  // counters: a background mode that compacted inside ApplyBatch without
  // counting it would still shrink the arena there.
  expect(bg_mode.arena_shrinks == 0, "background mode: no ApplyBatch shrank the arena");
  expect(bg_mode.stats.background_compactions >= 1,
         "background mode: maintenance completed at least one shadow rewrite");
  // The cost criterion rides on the counters above: sync p99 indexes a
  // compaction spike (>= 2 spikes in 25 batches), background p99 a plain
  // splice, so this holds by construction rather than machine speed — on a
  // quiet box the median ratio is ~0.65. The 25% band keeps it a
  // gross-inversion guard; the deterministic counters above are the real
  // regression tripwire.
  expect(median_ratio <= 1.25,
         "background mode: p99 apply CPU time no worse than sync baseline");
  std::printf(
      "smoke: delete-heavy sync{p99=%.3fms apply_compactions=%zu} "
      "background{p99=%.3fms bg_compactions=%zu steps=%zu edges=%zu forced=%zu} "
      "median p99 ratio %.3f over %d pairs\n",
      sync_mode.p99_ms, static_cast<size_t>(sync_mode.apply_compactions), bg_mode.p99_ms,
      static_cast<size_t>(bg_mode.stats.background_compactions),
      static_cast<size_t>(bg_mode.stats.maintenance_steps),
      static_cast<size_t>(bg_mode.stats.background_edges_copied),
      static_cast<size_t>(bg_mode.stats.forced_sync_compactions), median_ratio, kPairs);

  const auto small = run(30000);
  const auto large = run(120000);
  expect(small.touched <= 6 * 2 * 64, "touched vertices bounded by batch entries");
  // The rebuild path rewrites both views' full arenas every batch: 6
  // batches x 2 views x |E| edges. The splice totals must come in at less
  // than half of that even on this tiny graph (hub-heavy R-MAT sampling
  // makes this the worst case for the splice).
  expect(2 * small.spliced < 6 * 2 * small.graph_edges, "splice work below rebuild work");
  expect(2 * large.spliced < 6 * 2 * large.graph_edges, "splice work below rebuild work (large)");
  expect(large.spliced < 4 * small.spliced, "splice work sublinear in |E|");
  std::printf("smoke: small{spliced=%zu touched=%zu |E|=%zu} large{spliced=%zu |E|=%zu} -> %s\n",
              static_cast<size_t>(small.spliced), static_cast<size_t>(small.touched),
              static_cast<size_t>(small.graph_edges), static_cast<size_t>(large.spliced),
              static_cast<size_t>(large.graph_edges), failures == 0 ? "OK" : "FAIL");
  return failures == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      return Smoke();
    }
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    }
  }

  PrintHeader("Mutation throughput: rebuild-CSR vs SlackCsr ApplyBatch");
  BenchJson json("mutation_throughput");

  // Skewed input: R-MAT at 2.4M edges so the initial snapshot holds ~1.2M.
  SweepInput("RMAT*", GenerateRmat(200000, 2400000, {.seed = 42, .assign_random_weights = true}),
             json);

  // "Real graph" slot: a user-supplied edge list, else a uniform-degree
  // surrogate so the sweep always covers a second degree profile.
  if (const char* path = std::getenv("GRAPHBOLT_REAL_GRAPH")) {
    bool ok = false;
    EdgeList real = LoadEdgeListText(path, &ok);
    if (ok) {
      SweepInput(path, real, json);
    } else {
      std::printf("\ncould not load GRAPHBOLT_REAL_GRAPH=%s; skipping\n", path);
    }
  } else {
    SweepInput("ER*", GenerateErdosRenyi(200000, 2400000, 43, /*assign_random_weights=*/true),
               json);
  }

  const std::string path = out_path.empty() ? json.DefaultPath() : out_path;
  if (json.WriteFile(path)) {
    std::printf("\nwrote %s\n", path.c_str());
  } else {
    std::printf("\nfailed to write %s\n", path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace graphbolt

int main(int argc, char** argv) { return graphbolt::Main(argc, argv); }

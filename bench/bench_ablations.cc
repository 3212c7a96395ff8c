// Ablation benches for the design choices DESIGN.md calls out (not a paper
// table — these justify the implementation decisions):
//
//   A1. Horizontal pruning depth: refinement time and store footprint as
//       the tracked history shrinks from all 10 iterations to 1, with the
//       hybrid continuation covering the rest.
//   A2. GB-Reset direction optimization: sparse-push-only vs the
//       dense-pull switch.
//   A3. Dependency-store backend: dense per-level arrays vs the compact
//       per-vertex layout (time vs memory trade).
//   A4. Folding into stored minima: addition-only and mixed SSSP batches
//       through the selective path and through full re-evaluation.
//   A5. propagateDelta vs retract+propagate pairs for a simple aggregation
//       (the within-engine view of Figure 8's GraphBolt vs GraphBolt-RP).
#include <cstdio>

#include "bench/harness.h"
#include "src/algorithms/pagerank.h"
#include "src/algorithms/sssp.h"
#include "src/core/compact_dependency_store.h"
#include "src/core/graphbolt_engine.h"
#include "src/engine/reset_engine.h"

namespace graphbolt {
namespace {

void AblateHistoryDepth() {
  std::printf("\nA1. Horizontal pruning depth (PR, TT*, 100-mutation batches):\n");
  std::printf("%-10s %12s %12s %14s\n", "history", "refine(ms)", "edges(k)", "store bytes(MB)");
  const Surrogate surrogate{"TT*", 25000, 320000, 301};
  StreamSplit split = MakeStream(surrogate, /*weighted=*/true);
  const auto batches = MakeBatches(split, 3, {.size = 100, .add_fraction = 0.6}, 302);
  for (const uint32_t history : {1u, 2u, 5u, 10u}) {
    MutableGraph graph(split.initial);
    GraphBoltEngine<PageRank> engine(&graph, PageRank(0.85, kBenchTolerance),
                                     {.max_iterations = 10, .history_size = history});
    const StreamingResult result = RunStreaming(engine, batches);
    std::printf("%-10u %12.2f %12.0f %14.2f\n", history, result.avg_batch_seconds * 1e3,
                static_cast<double>(result.avg_edges) / 1e3,
                static_cast<double>(engine.store().actual_bytes()) / 1048576.0);
  }
  std::printf(
      "Expected: shallower history = smaller store but more continuation\n"
      "work (the hybrid replay recomputes instead of refining).\n");
}

void AblateDirectionOptimization() {
  std::printf("\nA2. GB-Reset direction optimization (PR, TT*, restart cost):\n");
  std::printf("%-22s %12s %12s\n", "dense_threshold", "restart(ms)", "edges(k)");
  const Surrogate surrogate{"TT*", 25000, 320000, 303};
  StreamSplit split = MakeStream(surrogate, /*weighted=*/true);
  const auto batches = MakeBatches(split, 2, {.size = 100, .add_fraction = 0.6}, 304);
  struct Setting {
    const char* label;
    double threshold;
  };
  for (const Setting s : {Setting{"push only (off)", 2.0}, Setting{"|E|/2 (default)", 0.5},
                          Setting{"|E|/20 (eager)", 0.05}}) {
    MutableGraph graph(split.initial);
    ResetEngine<PageRank> engine(&graph, PageRank(0.85, kBenchTolerance),
                                 {.max_iterations = 10, .dense_threshold = s.threshold});
    const StreamingResult result = RunStreaming(engine, batches);
    std::printf("%-22s %12.2f %12.0f\n", s.label, result.avg_batch_seconds * 1e3,
                static_cast<double>(result.avg_edges) / 1e3);
  }
  std::printf(
      "Expected: dense pulls win when most vertices are active (one pass,\n"
      "no atomics/retraction); eager switching can overshoot once the\n"
      "active set shrinks.\n");
}

void AblateStoreBackend() {
  std::printf("\nA3. Dependency-store backend (PR, TT*):\n");
  std::printf("%-10s %12s %14s %16s\n", "backend", "refine(ms)", "initial(ms)", "store bytes(MB)");
  const Surrogate surrogate{"TT*", 25000, 320000, 305};
  StreamSplit split = MakeStream(surrogate, /*weighted=*/true);
  const auto batches = MakeBatches(split, 3, {.size = 100, .add_fraction = 0.6}, 306);
  {
    MutableGraph graph(split.initial);
    GraphBoltEngine<PageRank> engine(&graph, PageRank(0.85, kBenchTolerance));
    const StreamingResult result = RunStreaming(engine, batches);
    std::printf("%-10s %12.2f %14.2f %16.2f\n", "dense", result.avg_batch_seconds * 1e3,
                result.initial_seconds * 1e3,
                static_cast<double>(engine.store().actual_bytes()) / 1048576.0);
  }
  {
    MutableGraph graph(split.initial);
    GraphBoltEngine<PageRank, CompactDependencyStore<double>> engine(
        &graph, PageRank(0.85, kBenchTolerance));
    const StreamingResult result = RunStreaming(engine, batches);
    std::printf("%-10s %12.2f %14.2f %16.2f\n", "compact", result.avg_batch_seconds * 1e3,
                result.initial_seconds * 1e3,
                static_cast<double>(engine.store().actual_bytes()) / 1048576.0);
  }
  std::printf(
      "Expected: compact trades some time (per-vertex indirection,\n"
      "materialize/commit, tail management) for a footprint that tracks\n"
      "actual value churn instead of V*t.\n");
}

void AblateMonotonicPush() {
  std::printf("\nA4. Folding into stored minima (SSSP, TT*): the selective path vs the\n"
              "paper's full re-evaluation (disable_monotonic_push):\n");
  std::printf("%-10s %-16s %12s %12s\n", "batches", "min refinement", "refine(ms)", "edges(k)");
  const Surrogate surrogate{"TT*", 25000, 320000, 307};
  StreamSplit split = MakeStream(surrogate, /*weighted=*/true);
  for (const double add_fraction : {1.0, 0.5}) {
    const auto batches = MakeBatches(split, 3, {.size = 100, .add_fraction = add_fraction}, 308);
    for (const bool disabled : {false, true}) {
      MutableGraph graph(split.initial);
      GraphBoltEngine<Sssp> engine(&graph, Sssp(0),
                                   {.max_iterations = 512,
                                    .run_to_convergence = true,
                                    .disable_monotonic_push = disabled});
      const StreamingResult result = RunStreaming(engine, batches);
      std::printf("%-10s %-16s %12.2f %12.0f\n", add_fraction == 1.0 ? "adds-only" : "mixed",
                  disabled ? "full re-eval" : "selective", result.avg_batch_seconds * 1e3,
                  static_cast<double>(result.avg_edges) / 1e3);
    }
  }
  std::printf(
      "Expected: folding improved contributions skips the full\n"
      "in-neighborhood pulls, cutting both time and edge computations\n"
      "(the §5.4B observation about additions); with deletions only the\n"
      "vertices whose minimum a deleted or worsened input attained are\n"
      "re-evaluated.\n");
}

void AblateDeltaVsRetractPropagate() {
  std::printf("\nA5. propagateDelta vs retract+propagate (PR, TT*):\n");
  std::printf("%-22s %12s\n", "mode", "refine(ms)");
  const Surrogate surrogate{"TT*", 25000, 320000, 309};
  StreamSplit split = MakeStream(surrogate, /*weighted=*/true);
  const auto batches = MakeBatches(split, 3, {.size = 100, .add_fraction = 0.6}, 310);
  for (const bool rp : {false, true}) {
    MutableGraph graph(split.initial);
    GraphBoltEngine<PageRank> engine(&graph, PageRank(0.85, kBenchTolerance),
                                     {.use_retract_propagate = rp});
    const StreamingResult result = RunStreaming(engine, batches);
    std::printf("%-22s %12.2f\n", rp ? "retract+propagate" : "propagateDelta",
                result.avg_batch_seconds * 1e3);
  }
  std::printf(
      "Expected: the combined delta halves the aggregation operations per\n"
      "transitive edge (one atomic add instead of two).\n");
}

void Run() {
  PrintHeader("Ablations: design choices called out in DESIGN.md");
  AblateHistoryDepth();
  AblateDirectionOptimization();
  AblateStoreBackend();
  AblateMonotonicPush();
  AblateDeltaVsRetractPropagate();
}

}  // namespace
}  // namespace graphbolt

int main() {
  graphbolt::Run();
  return 0;
}

// Reproduces Figure 9: SSSP against KickStarter and Differential Dataflow.
//   9a: per-batch time vs batch size with mixed additions + deletions.
//   9b: additions only (no min re-evaluation needed, so GraphBolt and
//       KickStarter converge toward each other).
//
// GraphBolt runs twice: with the paper's min re-evaluation of every
// impacted vertex (disable_monotonic_push, column "GB-reeval") and with the
// engine's selective path, which folds new contributions into the stored
// minima and re-evaluates only vertices whose attaining input went away.
//
// Paper shape: KickStarter < GraphBolt at every batch size (it exploits
// monotonicity and tracks one dependence edge per vertex, versus
// GraphBolt's full per-iteration history and pull-based min re-evaluation);
// the gap narrows for additions-only.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "src/algorithms/sssp.h"
#include "src/core/graphbolt_engine.h"
#include "src/kickstarter/kickstarter_engine.h"
#include "src/minidd/dataflow.h"

namespace graphbolt {
namespace {

constexpr size_t kSweep[] = {1, 10, 100, 1000, 10000};

GraphBoltEngine<Sssp>::Options BoltOptions(bool full_reevaluation) {
  return {.max_iterations = 512,
          .run_to_convergence = true,
          .disable_monotonic_push = full_reevaluation};
}

void SweepCase(const char* title, const StreamSplit& split, double add_fraction, uint64_t seed) {
  std::printf("\n%s\n%-8s %14s %12s %12s %14s\n", title, "batch", "KickStarter", "GraphBolt",
              "GB-reeval", "DiffDataflow");
  for (const size_t size : kSweep) {
    const auto batches = MakeBatches(split, 2, {.size = size, .add_fraction = add_fraction}, seed);

    double ks_time = 0.0;
    {
      MutableGraph graph(split.initial);
      KickStarterEngine<KsSsspTraits> engine(&graph, KsSsspTraits(0));
      ks_time = RunStreaming(engine, batches).avg_batch_seconds;
    }
    double bolt_time[2] = {};  // selective, full re-evaluation
    for (const bool full : {false, true}) {
      MutableGraph graph(split.initial);
      GraphBoltEngine<Sssp> engine(&graph, Sssp(0), BoltOptions(full));
      bolt_time[full] = RunStreaming(engine, batches).avg_batch_seconds;
    }
    double dd_time = 0.0;
    {
      DdSssp dd(split.initial, 0);
      dd.InitialCompute();
      for (const auto& batch : batches) {
        dd.ApplyUpdates(batch);
        dd_time += dd.stats().seconds;
      }
      dd_time /= static_cast<double>(batches.size());
    }
    std::printf("%-8zu %14.3f %12.3f %12.3f %14.3f\n", size, ks_time * 1e3, bolt_time[0] * 1e3,
                bolt_time[1] * 1e3, dd_time * 1e3);
  }
}

void Run() {
  PrintHeader(
      "Figure 9: SSSP per-batch time (ms) — KickStarter vs GraphBolt vs\n"
      "Differential Dataflow, TwitterMPI surrogate (weighted).");

  const Surrogate surrogate{"TT*", 25000, 350000, 171};
  StreamSplit split = MakeStream(surrogate, /*weighted=*/true);

  SweepCase("Figure 9a: additions + deletions", split, 0.5, 172);
  SweepCase("Figure 9b: additions only", split, 1.0, 173);

  // Edge-computation comparison backing the paper's "KickStarter performs
  // 14x fewer edge computations" observation.
  {
    const auto batches = MakeBatches(split, 2, {.size = 1000, .add_fraction = 0.5}, 174);
    uint64_t ks_edges = 0;
    {
      MutableGraph graph(split.initial);
      KickStarterEngine<KsSsspTraits> engine(&graph, KsSsspTraits(0));
      ks_edges = std::max<uint64_t>(RunStreaming(engine, batches).avg_edges, 1);
    }
    std::printf("\nEdge computations per 1K-batch: KickStarter=%llu\n",
                static_cast<unsigned long long>(ks_edges));
    for (const bool full : {false, true}) {
      MutableGraph graph(split.initial);
      GraphBoltEngine<Sssp> engine(&graph, Sssp(0), BoltOptions(full));
      const uint64_t bolt_edges = RunStreaming(engine, batches).avg_edges;
      std::printf("  GraphBolt (%s)=%llu (GraphBolt/KickStarter = %.1fx)\n",
                  full ? "full re-evaluation" : "selective", static_cast<unsigned long long>(bolt_edges),
                  static_cast<double>(bolt_edges) / static_cast<double>(ks_edges));
    }
  }

  std::printf(
      "\nExpected shape (Figure 9): KickStarter fastest (monotonic asynchrony,\n"
      "minimal dependence state); GraphBolt pays for BSP-exact per-iteration\n"
      "history and min re-evaluation, mostly on deletions (9a vs 9b). The\n"
      "selective path re-evaluates only lost minima, so it closes part of the\n"
      "9a gap that full re-evaluation (GB-reeval) leaves.\n");
}

}  // namespace
}  // namespace graphbolt

int main() {
  graphbolt::Run();
  return 0;
}

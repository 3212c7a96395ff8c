// Live route distances on a road network with changing conditions:
// closures delete edges, reopenings add them back. Compares the two
// incremental policies for path problems the paper discusses in §5.4B —
// GraphBolt's BSP-exact min re-evaluation versus the KickStarter
// dependence-tree baseline — on a weighted grid (Manhattan-style roads)
// with R-MAT "shortcut" expressways.
//
// Run:  ./example_road_navigation [--rows R] [--cols C] [--batches N]
#include <cmath>
#include <cstdio>
#include <string>

#include "src/graphbolt.h"
#include "src/util/cli.h"
#include "src/util/random.h"

int main(int argc, char** argv) {
  using namespace graphbolt;

  ArgParser args("Streaming shortest paths on an evolving road network");
  args.AddInt("rows", 60, "grid rows");
  args.AddInt("cols", 60, "grid columns");
  args.AddInt("batches", 6, "closure/reopen batches");
  if (!args.Parse(argc, argv)) {
    return 1;
  }
  const auto rows = static_cast<VertexId>(args.GetInt("rows"));
  const auto cols = static_cast<VertexId>(args.GetInt("cols"));

  // Roads: bidirectional grid with travel-time weights + a few expressways.
  EdgeList roads = GenerateGrid(rows, cols);
  Rng rng(21);
  {
    EdgeList reverse;
    reverse.set_num_vertices(roads.num_vertices());
    for (Edge& e : roads.edges()) {
      e.weight = static_cast<Weight>(1.0 + rng.NextDouble() * 4.0);
      reverse.Add(e.dst, e.src, static_cast<Weight>(1.0 + rng.NextDouble() * 4.0));
    }
    for (const Edge& e : reverse.edges()) {
      roads.edges().push_back(e);
    }
  }
  for (int i = 0; i < 40; ++i) {
    const auto a = static_cast<VertexId>(rng.NextBounded(roads.num_vertices()));
    const auto b = static_cast<VertexId>(rng.NextBounded(roads.num_vertices()));
    if (a != b) {
      roads.Add(a, b, static_cast<Weight>(1.0 + rng.NextDouble() * 2.0));
    }
  }

  const VertexId depot = 0;
  const VertexId destination = rows * cols - 1;
  MutableGraph g_bolt(roads);
  MutableGraph g_ks(roads);

  GraphBoltEngine<Sssp> bolt(&g_bolt, Sssp(depot),
                             {.max_iterations = 4096, .run_to_convergence = true});
  bolt.InitialCompute();
  KickStarterEngine<KsSsspTraits> kick(&g_ks, KsSsspTraits(depot));
  kick.InitialCompute();
  std::printf("initial distance depot->corner: %.2f\n", bolt.values()[destination]);

  std::printf("%-7s %-9s %12s %14s %16s\n", "batch", "kind", "GraphBolt", "KickStarter",
              "dist(corner)");
  for (int round = 0; round < args.GetInt("batches"); ++round) {
    // Alternate: close a random sample of roads, then reopen some.
    MutationBatch batch;
    const bool closing = round % 2 == 0;
    const EdgeList current = g_bolt.ToEdgeList();
    for (int i = 0; i < 30; ++i) {
      const Edge& e = current.edges()[rng.NextBounded(current.num_edges())];
      if (closing) {
        batch.push_back(EdgeMutation::Delete(e.src, e.dst));
      } else {
        const auto a = static_cast<VertexId>(rng.NextBounded(g_bolt.num_vertices()));
        const auto b = static_cast<VertexId>(rng.NextBounded(g_bolt.num_vertices()));
        batch.push_back(EdgeMutation::Add(a, b, static_cast<Weight>(1.0 + rng.NextDouble() * 3.0)));
      }
    }
    bolt.ApplyMutations(batch);
    kick.ApplyMutations(batch);
    const double d = bolt.values()[destination];
    std::printf("%-7d %-9s %9.2f ms %11.2f ms %16s\n", round + 1, closing ? "closures" : "reopens",
                bolt.stats().seconds * 1e3, kick.stats().seconds * 1e3,
                d >= kUnreachable ? "unreachable" : std::to_string(d).c_str());

    // The two engines must agree on every distance.
    for (VertexId v = 0; v < g_bolt.num_vertices(); ++v) {
      const double a = bolt.values()[v];
      const double b = kick.values()[v];
      if (std::fabs(a - b) > 1e-6 && !(a >= kUnreachable && b >= kUnreachable)) {
        std::printf("MISMATCH at vertex %u: %.4f vs %.4f\n", v, a, b);
        return 1;
      }
    }
  }
  std::printf("GraphBolt and KickStarter agreed on all distances after every batch.\n");
  return 0;
}

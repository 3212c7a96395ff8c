#include "src/core/algorithm.h"

#include <algorithm>

#include "src/parallel/parallel_for.h"
#include "src/util/logging.h"

namespace graphbolt {

VertexContext ComputeVertexContext(const MutableGraph& graph, VertexId v) {
  VertexContext ctx;
  ctx.out_degree = static_cast<uint32_t>(graph.OutDegree(v));
  ctx.in_degree = static_cast<uint32_t>(graph.InDegree(v));
  double out_sum = 0.0;
  for (const Weight w : graph.OutWeights(v)) {
    out_sum += w;
  }
  double in_sum = 0.0;
  for (const Weight w : graph.InWeights(v)) {
    in_sum += w;
  }
  ctx.out_weight_sum = out_sum;
  ctx.in_weight_sum = in_sum;
  return ctx;
}

namespace {

// Recomputes every vertex, in vertex order.
void RecomputeAll(const MutableGraph& graph, std::vector<VertexContext>* contexts) {
  contexts->resize(graph.num_vertices());
  ParallelFor(0, contexts->size(), [&](size_t vi) {
    (*contexts)[vi] = ComputeVertexContext(graph, static_cast<VertexId>(vi));
  }, /*grain=*/512);
}

}  // namespace

std::vector<VertexContext> ComputeVertexContexts(const MutableGraph& graph) {
  std::vector<VertexContext> contexts;
  RecomputeAll(graph, &contexts);
  return contexts;
}

void UpdateVertexContexts(const MutableGraph& graph, std::vector<VertexId> touched,
                          std::vector<VertexContext>* contexts) {
  const VertexId n = graph.num_vertices();
  VertexId max_touched = 0;
  for (const VertexId v : touched) {
    max_touched = std::max(max_touched, v);
  }
  GB_CHECK(touched.empty() || max_touched < n)
      << "vertex " << max_touched << " is not in a graph of " << n << " vertices";
  for (VertexId v = static_cast<VertexId>(contexts->size()); v < n; ++v) {
    touched.push_back(v);
  }
  // From n/2 endpoints on, one in-order pass over every vertex is cheaper
  // than the dedup and the scattered recomputes. On a 40K-vertex,
  // 600K-edge RMAT graph (shared 4-vCPU VM) both cost 0.6 ms at 20K
  // endpoints; at 195K the pass still costs 0.6 ms, the scattered
  // recompute 1.9 ms.
  if (touched.size() >= n / 2) {
    RecomputeAll(graph, contexts);
    return;
  }
  contexts->resize(n);
  // Unique vertices, so the parallel recompute writes distinct cells. A
  // bitmap, not a sort: it is linear in the endpoints.
  std::vector<bool> seen(n);
  size_t unique = 0;
  for (const VertexId v : touched) {
    if (!seen[v]) {
      seen[v] = true;
      touched[unique++] = v;
    }
  }
  touched.resize(unique);
  ParallelFor(0, touched.size(), [&](size_t i) {
    (*contexts)[touched[i]] = ComputeVertexContext(graph, touched[i]);
  }, /*grain=*/64);
}

}  // namespace graphbolt

// Ligra's graph-parallel primitives: edgeMap and vertexMap (§4.2 of the
// paper: "GraphBolt builds over the graph parallel interface to provide
// edgeMap and vertexMap functions").
//
// These are the building blocks the refinement functions of Algorithm 2/3
// (repropagate, retract, propagate) are written against:
//
//   VertexSubset out = EdgeMap(graph, frontier, f);
//
// applies `f(u, v, weight)` to every out-edge of the frontier and returns
// the subset of destinations for which `f` returned true — choosing between
// a sparse push (iterate frontier out-edges) and a dense pull (iterate all
// vertices' in-edges, short-circuiting on membership) by comparing the
// frontier's outgoing-edge count against a threshold, exactly Ligra's
// direction optimization.
#ifndef SRC_ENGINE_EDGE_MAP_H_
#define SRC_ENGINE_EDGE_MAP_H_

#include <cstdint>

#include "src/engine/vertex_subset.h"
#include "src/graph/mutable_graph.h"
#include "src/parallel/parallel_for.h"
#include "src/parallel/reducer.h"

namespace graphbolt {

struct EdgeMapOptions {
  // Switch to the dense direction when the frontier's outgoing edges exceed
  // |E| / denseness_denominator (Ligra uses |E|/20).
  uint64_t denseness_denominator = 20;
  // Force one direction (for testing and for algorithms that require push
  // or pull semantics).
  bool force_sparse = false;
  bool force_dense = false;
  // The caller will consume the result through its dense view only (the
  // next step is a pull / force_dense edgeMap): fuse FrontierBuilder's Take
  // into the map by returning a dense-only subset — the O(universe) sparse
  // pack is skipped and materializes lazily if members() is ever read.
  bool dense_result = false;
  // Let the direction chooser pick the result form too: a map that ran in
  // the dense direction returns a dense-only subset (its frontier was
  // edge-heavy, so the next step tends to stay dense — and the chooser now
  // sums degrees off the dense view directly, so an auto chain keeps the
  // fusion instead of un-materializing it). A sparse-direction map still
  // returns the packed form its consumers index into. Explicit
  // dense_result / force_* override the pick.
  bool auto_result = true;
};

// Ligra's direction rule: pull once the frontier's out-edges exceed
// |E| / denseness_denominator. EdgeMap and the GraphBolt engine's
// refinement levels both choose their direction with it.
inline bool PreferPull(uint64_t frontier_edges, uint64_t num_edges,
                       uint64_t denseness_denominator = EdgeMapOptions{}.denseness_denominator) {
  return frontier_edges > num_edges / denseness_denominator;
}

// Sparse push: applies f to every out-edge of the frontier. `f` must be
// safe to call concurrently; destinations where any call returns true form
// the result (deduplicated).
template <typename EdgeFunc>
VertexSubset EdgeMapSparse(const MutableGraph& graph, const VertexSubset& frontier, EdgeFunc f,
                           bool dense_result = false) {
  FrontierBuilder next(graph.num_vertices());
  ParallelForChunks(0, frontier.size(), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      const VertexId u = frontier.members()[i];
      const auto nbrs = graph.OutNeighbors(u);
      const auto wts = graph.OutWeights(u);
      for (size_t e = 0; e < nbrs.size(); ++e) {
        if (f(u, nbrs[e], wts[e])) {
          next.Claim(nbrs[e]);
        }
      }
    }
  }, /*grain=*/64);
  return dense_result ? next.TakeDense() : next.Take();
}

// Dense pull: for every vertex, applies f over in-edges whose source is in
// the frontier. Each destination is owned by one task, so `f` calls for a
// given destination are serialized (no atomics needed on the destination).
template <typename EdgeFunc>
VertexSubset EdgeMapDense(const MutableGraph& graph, const VertexSubset& frontier, EdgeFunc f,
                          bool dense_result = false) {
  const AtomicBitset& members = frontier.Dense();
  FrontierBuilder next(graph.num_vertices());
  ParallelForChunks(0, graph.num_vertices(), [&](size_t lo, size_t hi) {
    for (size_t vi = lo; vi < hi; ++vi) {
      const VertexId v = static_cast<VertexId>(vi);
      const auto nbrs = graph.InNeighbors(v);
      const auto wts = graph.InWeights(v);
      for (size_t e = 0; e < nbrs.size(); ++e) {
        if (members.Test(nbrs[e]) && f(nbrs[e], v, wts[e])) {
          next.Claim(v);
        }
      }
    }
  }, /*grain=*/128);
  return dense_result ? next.TakeDense() : next.Take();
}

// Direction-optimized edgeMap.
template <typename EdgeFunc>
VertexSubset EdgeMap(const MutableGraph& graph, const VertexSubset& frontier, EdgeFunc f,
                     const EdgeMapOptions& options = {}) {
  if (options.force_sparse) {
    return EdgeMapSparse(graph, frontier, f, options.dense_result);
  }
  if (options.force_dense) {
    return EdgeMapDense(graph, frontier, f, options.dense_result);
  }
  // Frontier out-degree sum for the direction choice, in parallel — on
  // dense frontiers the serial sum was itself a full O(V) pass before any
  // edge work started. ParallelReduceSum falls back to one serial chunk
  // below its grain, so sparse frontiers pay no fork-join overhead. A
  // dense-only frontier (a fused upstream map) is summed off its bitset so
  // the choice itself never forces the O(universe) sparse pack.
  uint64_t frontier_edges = 0;
  if (frontier.dense_only()) {
    const AtomicBitset& bits = frontier.Dense();
    frontier_edges = ParallelReduceSum<uint64_t>(
        0, static_cast<size_t>(graph.num_vertices()), [&](size_t v) {
          const VertexId id = static_cast<VertexId>(v);
          return bits.Test(id) ? static_cast<uint64_t>(graph.OutDegree(id)) : uint64_t{0};
        });
  } else {
    const auto& members = frontier.members();
    frontier_edges = ParallelReduceSum<uint64_t>(
        0, members.size(),
        [&](size_t i) { return static_cast<uint64_t>(graph.OutDegree(members[i])); });
  }
  if (PreferPull(frontier_edges, graph.num_edges(), options.denseness_denominator)) {
    return EdgeMapDense(graph, frontier, f, options.dense_result || options.auto_result);
  }
  return EdgeMapSparse(graph, frontier, f, options.dense_result);
}

// Applies f to every member of the subset; members where f returns true
// form the result.
template <typename VertexFunc>
VertexSubset VertexMap(const VertexSubset& subset, VertexFunc f) {
  FrontierBuilder kept(subset.universe());
  ParallelForChunks(0, subset.size(), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      const VertexId v = subset.members()[i];
      if (f(v)) {
        kept.Claim(v);
      }
    }
  }, /*grain=*/256);
  return kept.Take();
}

// Side-effect-only vertexMap.
template <typename VertexFunc>
void VertexForEach(const VertexSubset& subset, VertexFunc f) {
  ParallelForChunks(0, subset.size(), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      f(subset.members()[i]);
    }
  }, /*grain=*/256);
}

}  // namespace graphbolt

#endif  // SRC_ENGINE_EDGE_MAP_H_

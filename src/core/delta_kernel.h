// The per-vertex accumulate/propagate kernel shared by both execution
// modes of GraphBoltEngine (src/core/graphbolt_engine.h).
//
// The synchronous BSP refinement loop and the asynchronous
// delta-accumulative mode (the Maiter-style barrier-free tier) perform the
// same two primitive operations on aggregation cells:
//
//   PushChange     apply one contributor's value/context change to a target
//                  cell — either as a combined delta (decomposable
//                  aggregations with DeltaContribution) or as a
//                  retract-old / aggregate-new pair.
//   PullAggregate  rebuild a vertex's aggregation from its full
//                  in-neighborhood under a given value assignment.
//
// Extracting them here keeps the two modes numerically identical edge by
// edge: an async step propagating a delta along (u, w) computes exactly the
// arithmetic the BSP transitive-impact pass would (atomically when it
// pushes, plainly when a dense level pulls), so the async
// fixed point coincides with the BSP fixed point for decomposable
// aggregations (PAPERS.md: Maiter's accumulative iterative computation).
#ifndef SRC_CORE_DELTA_KERNEL_H_
#define SRC_CORE_DELTA_KERNEL_H_

#include <vector>

#include "src/core/algorithm.h"
#include "src/engine/reset_engine.h"  // HasDeltaContribution
#include "src/graph/mutable_graph.h"

namespace graphbolt {

template <GraphAlgorithm Algo>
struct DeltaKernel {
  using Value = typename Algo::Value;
  using Aggregate = typename Algo::Aggregate;

  // Applies one change (retract old / aggregate new, or a combined delta) to
  // a target aggregation cell. `use_retract_propagate` forces the two-call
  // pair even when the algorithm offers a combined delta (the GraphBolt-RP
  // ablation of §5.4A). `kOwned` selects the plain-arithmetic operations for
  // a cell the calling task is the only writer of; the default is atomic,
  // for scatters where several tasks may hit one cell.
  template <bool kOwned = false>
  static void PushChange(const Algo& algo, bool use_retract_propagate, VertexId u,
                         const Value& old_value, const Value& new_value, Weight w,
                         const VertexContext& old_ctx, const VertexContext& new_ctx,
                         Aggregate* agg) {
    if constexpr (HasDeltaContribution<Algo>) {
      if (!use_retract_propagate) {
        Accumulate<kOwned>(algo, agg,
                           algo.DeltaContribution(u, old_value, new_value, w, old_ctx, new_ctx));
        return;
      }
    }
    Retract<kOwned>(algo, agg, algo.ContributionOf(u, old_value, w, old_ctx));
    Accumulate<kOwned>(algo, agg, algo.ContributionOf(u, new_value, w, new_ctx));
  }

  // Re-evaluates g(v) by pulling the full in-neighborhood with `vals` under
  // `contexts`. `edge_counter` accumulates the in-degree for stats.
  static Aggregate PullAggregate(const Algo& algo, const MutableGraph& graph,
                                 const std::vector<VertexContext>& contexts, VertexId v,
                                 const std::vector<Value>& vals, uint64_t* edge_counter) {
    Aggregate agg = algo.IdentityAggregate();
    const auto in_nbrs = graph.InNeighbors(v);
    const auto in_wts = graph.InWeights(v);
    for (size_t i = 0; i < in_nbrs.size(); ++i) {
      const VertexId u = in_nbrs[i];
      algo.AggregateOwned(&agg, algo.ContributionOf(u, vals[u], in_wts[i], contexts[u]));
    }
    *edge_counter += in_nbrs.size();
    return agg;
  }

 private:
  using Contribution = typename Algo::Contribution;

  template <bool kOwned>
  static void Accumulate(const Algo& algo, Aggregate* agg, const Contribution& c) {
    if constexpr (kOwned) {
      algo.AggregateOwned(agg, c);
    } else {
      algo.AggregateAtomic(agg, c);
    }
  }

  template <bool kOwned>
  static void Retract(const Algo& algo, Aggregate* agg, const Contribution& c) {
    if constexpr (kOwned) {
      algo.RetractOwned(agg, c);
    } else {
      algo.RetractAtomic(agg, c);
    }
  }
};

}  // namespace graphbolt

#endif  // SRC_CORE_DELTA_KERNEL_H_

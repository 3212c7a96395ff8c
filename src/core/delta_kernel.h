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
// For weight-free algorithms (IsWeightFreeAlgorithm) PushChange splits in
// two: StageChange evaluates a source's change once, and PushStaged adds
// it along each out-edge, the way Maiter accumulates one Δ per vertex.
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
  using Contribution = typename Algo::Contribution;

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

  // Weight-free algorithms: a source's change is the same along every
  // out-edge. StageChange writes it to `staged[0, StagedWidth)`: the
  // combined delta, or the retract-old / aggregate-new pair. PushStaged then
  // applies it to one cell. Together they are PushChange's arithmetic bit
  // for bit, with the contributions evaluated once per source, not per edge.
  static constexpr bool kWeightFree = IsWeightFreeAlgorithm<Algo>();
  static constexpr size_t kMaxStagedWidth = 2;

  static constexpr size_t StagedWidth(bool use_retract_propagate) {
    return HasDeltaContribution<Algo> && !use_retract_propagate ? 1 : 2;
  }

  static void StageChange(const Algo& algo, bool use_retract_propagate, VertexId u,
                          const Value& old_value, const Value& new_value,
                          const VertexContext& old_ctx, const VertexContext& new_ctx,
                          Contribution* staged)
    requires(kWeightFree)
  {
    if constexpr (HasDeltaContribution<Algo>) {
      if (!use_retract_propagate) {
        staged[0] =
            algo.DeltaContribution(u, old_value, new_value, kDefaultWeight, old_ctx, new_ctx);
        return;
      }
    }
    staged[0] = algo.ContributionOf(u, old_value, kDefaultWeight, old_ctx);
    staged[1] = algo.ContributionOf(u, new_value, kDefaultWeight, new_ctx);
  }

  template <bool kOwned = false>
  static void PushStaged(const Algo& algo, bool use_retract_propagate, const Contribution* staged,
                         Aggregate* agg)
    requires(kWeightFree)
  {
    if (StagedWidth(use_retract_propagate) == 1) {
      Accumulate<kOwned>(algo, agg, staged[0]);
      return;
    }
    Retract<kOwned>(algo, agg, staged[0]);
    Accumulate<kOwned>(algo, agg, staged[1]);
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

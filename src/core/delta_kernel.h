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
// StageNeutral writes the change that adds nothing, bit for bit, which
// fills every slot of a source outside the frontier; AddStaged and
// NeutralDiff are the dense sweeps' per-edge add and frontier test.
//
// Extracting them here keeps the two modes numerically identical edge by
// edge: an async step propagating a delta along (u, w) computes exactly the
// arithmetic the BSP transitive-impact pass would (atomically when it
// pushes, plainly when a dense level pulls), so the async
// fixed point coincides with the BSP fixed point for decomposable
// aggregations (PAPERS.md: Maiter's accumulative iterative computation).
#ifndef SRC_CORE_DELTA_KERNEL_H_
#define SRC_CORE_DELTA_KERNEL_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
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

  // PushStaged into a cell the caller owns, with the width fixed at compile
  // time: the dense sweeps' per-edge step.
  template <size_t kWidth>
  static void AddStaged(const Algo& algo, const Contribution* staged, Aggregate* agg)
    requires(kWeightFree)
  {
    if constexpr (kWidth == 1) {
      algo.AggregateOwned(agg, staged[0]);
    } else {
      algo.RetractOwned(agg, staged[0]);
      algo.AggregateOwned(agg, staged[1]);
    }
  }

  // The neutral staged change: {-0.0} for one slot, {+0.0, -0.0} for the
  // retract/aggregate pair, in every element. Under IEEE round-to-nearest
  // x + (-0.0) and x - (+0.0) are x bit for bit for every x (signed zeros,
  // denormals, infinities and quiet NaNs included), so PushStaged of it
  // leaves any cell as it was, and a dense sweep may add the slot of every
  // in-neighbour without testing whether it is a frontier source.
  static void StageNeutral(bool use_retract_propagate, Contribution* staged)
    requires(kWeightFree)
  {
    if (StagedWidth(use_retract_propagate) == 1) {
      staged[0] = Filled(-0.0);
      return;
    }
    staged[0] = Filled(+0.0);
    staged[1] = Filled(-0.0);
  }

  // Zero exactly when staged[0, kWidth) holds the neutral change bit for
  // bit: the bits in which the slot differs from it, OR-ed together. A dense
  // sweep ORs this over the slots it adds anyway, so it learns whether a
  // vertex has a frontier in-neighbour without a second load per edge.
  template <size_t kWidth>
  static uint64_t NeutralDiff(const Contribution* staged)
    requires(kWeightFree)
  {
    constexpr uint64_t kNegativeZero = 0x8000000000000000ULL;
    if constexpr (kWidth == 1) {
      return BitsXor(staged[0], kNegativeZero);
    } else {
      return BitsXor(staged[0], 0) | BitsXor(staged[1], kNegativeZero);
    }
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
  // A contribution with every element `x`: a floating-point scalar, or an
  // array of them.
  static Contribution Filled(double x) {
    if constexpr (std::is_floating_point_v<Contribution>) {
      return static_cast<Contribution>(x);
    } else {
      Contribution c{};
      static_assert(std::is_floating_point_v<std::remove_cvref_t<decltype(c[0])>>,
                    "a weight-free contribution is floating point");
      for (auto& element : c) {
        element = x;
      }
      return c;
    }
  }

  // The bits of every element of `c` XOR `bits`, OR-ed together.
  static uint64_t BitsXor(const Contribution& c, uint64_t bits) {
    if constexpr (std::is_floating_point_v<Contribution>) {
      static_assert(sizeof(Contribution) == sizeof(uint64_t), "a staged element is a double");
      return std::bit_cast<uint64_t>(c) ^ bits;
    } else {
      uint64_t diff = 0;
      for (const auto& element : c) {
        static_assert(sizeof(element) == sizeof(uint64_t), "a staged element is a double");
        diff |= std::bit_cast<uint64_t>(element) ^ bits;
      }
      return diff;
    }
  }

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

// The generalized incremental programming model (§3.3, §4.2).
//
// A graph algorithm is a value type describing one BSP computation:
//
//   c_i(v) = ∮( ⊕_{(u,v) ∈ E} contribution(c_{i-1}(u)) )
//
// The algorithm supplies the aggregation operator ⊕ (`AggregateAtomic`),
// its inverse ⋃- (`RetractAtomic`), the per-edge contribution function, and
// the vertex function ∮ (`VertexCompute`). `AggregateOwned`/`RetractOwned`
// are the same arithmetic without atomics, for cells the calling task is
// the only writer of (pull accumulators, dense refinement sweeps); they
// produce the same bits as their atomic twins. The engines derive everything
// else: Ligra-style restart processing, GB-Reset delta processing, and
// GraphBolt dependency-driven refinement all run the *same* algorithm
// struct.
//
// Aggregation kinds:
//  - kDecomposable: ⊕ has an inverse acting on single contributions (sum,
//    product). Refinement uses retract/aggregate pairs, and simple
//    difference-style deltas collapse into one pass.
//  - kComplex: decomposed into simple sub-aggregations whose inputs are
//    transformed vertex values (BP products, CF matrix sums). The engine
//    re-derives old contributions from old values on the fly ("on-the-fly
//    evaluation of discrete contributions") and issues retract+aggregate
//    pairs — the GraphBolt-RP execution mode of §5.4.
//  - kNonDecomposable: no inverse (min/max, OR). The engine re-evaluates
//    the aggregation by pulling the full in-neighborhood of impacted
//    vertices, or only of those a selective aggregation (marker below) may
//    have lost.
#ifndef SRC_CORE_ALGORITHM_H_
#define SRC_CORE_ALGORITHM_H_

#include <concepts>
#include <cstddef>
#include <vector>

#include "src/graph/mutable_graph.h"
#include "src/graph/types.h"

namespace graphbolt {

enum class AggregationKind {
  kDecomposable,
  kComplex,
  kNonDecomposable,
};

// Per-vertex structural context captured at computation time. Contribution
// and vertex functions may depend on it (PageRank divides by out-degree,
// CoEM normalizes by the in-weight sum). Refinement keeps the pre-mutation
// snapshot so old contributions can be reproduced exactly.
struct VertexContext {
  uint32_t out_degree = 0;
  uint32_t in_degree = 0;
  double out_weight_sum = 0.0;
  double in_weight_sum = 0.0;

  friend bool operator==(const VertexContext&, const VertexContext&) = default;
};

// Computes the context of one vertex of `graph` from its adjacency, summing
// weights in stored (target-sorted) order.
VertexContext ComputeVertexContext(const MutableGraph& graph, VertexId v);

// Computes the context of every vertex of `graph` (one pass over both edge
// directions).
std::vector<VertexContext> ComputeVertexContexts(const MutableGraph& graph);

// Brings `contexts`, computed for `graph` before a splice, up to date with
// it: grows the array to the new vertex count and recomputes the new
// vertices and `touched` (the endpoints of every spliced edge; any order,
// duplicates allowed; each one a vertex of `graph`, checked). Per-vertex
// adjacency stays target-sorted through splice, rebuild and compaction, so
// the result equals ComputeVertexContexts(graph) bit for bit, at O(batch
// impact) instead of O(V + E). From |V|/2 endpoints on it runs the full
// pass instead, which is cheaper there.
void UpdateVertexContexts(const MutableGraph& graph, std::vector<VertexId> touched,
                          std::vector<VertexContext>* contexts);

// Optional marker: the aggregation absorbs improved inputs without
// retraction (min/max-style idempotent domination). When a mutation batch
// contains only edge additions, values can only improve, so the engine may
// push improved contributions directly instead of re-evaluating full
// in-neighborhoods (§5.4B: "edge additions in SSSP can be computed
// incrementally by min without re-evaluating it").
template <typename A>
constexpr bool IsMonotonicAggregation() {
  if constexpr (requires { A::kMonotonic; }) {
    return A::kMonotonic;
  } else {
    return false;
  }
}

// Optional marker: the aggregation is selective — folding two inputs yields,
// bit for bit, one of them (min, max). A stored aggregate, folded from the
// identity, is then the identity or one of its inputs, so a deletion or a
// worsened input can move it only where that input attained it.
// GraphBoltEngine refines such algorithms' sparse levels by folding every
// new contribution into the stored aggregate and re-evaluating only the
// targets whose attaining input went away, and its fast path splices a
// deletion whose contribution is strictly dominated. Bitwise OR (MultiSourceReach) is
// idempotent but not selective: its aggregate combines bits of several
// inputs, none of which need equal it. The marked algorithm's Contribution
// must be its Aggregate type.
template <typename A>
constexpr bool IsSelectiveAggregation() {
  if constexpr (requires { A::kSelective; }) {
    return A::kSelective;
  } else {
    return false;
  }
}

// Optional marker: the algorithm's InitialValue / ContributionOf /
// VertexCompute ignore the VertexContext entirely (path algorithms: the
// candidate through an edge is a function of the source value and the edge
// weight alone). The single-update fast path (src/driver/fast_path.h)
// requires this to prove that the degree shift caused by an edge mutation
// cannot move any contribution; without the marker every real mutation is
// conservatively unsafe for context-dependent algorithms like PageRank,
// whose per-edge contribution divides by the (now changed) out-degree.
template <typename A>
constexpr bool IsContextFreeAlgorithm() {
  if constexpr (requires { A::kContextFree; }) {
    return A::kContextFree;
  } else {
    return false;
  }
}

// Optional marker: ContributionOf (and DeltaContribution, when offered)
// ignore the edge weight `w`, so a source's contribution, and its change,
// is the same along every out-edge (PageRank divides by the out-degree, BP
// transforms the source's distribution). GraphBoltEngine then evaluates each
// frontier source's change once per level and adds that one value on every
// out-edge, instead of re-deriving it per edge from the source's old and
// new value and context. The staged value is the same function of the same
// arguments, so results keep their bits. A marked algorithm's Contribution
// is floating point (or an array of it), aggregated element-wise by IEEE
// addition and retracted by subtraction: the dense sweeps fill the staged
// slot of every source outside the frontier with a signed zero that adds
// nothing (DeltaKernel::StageNeutral). Weighted algorithms (CoEM, LP, CF,
// SSSP) must not set it.
template <typename A>
constexpr bool IsWeightFreeAlgorithm() {
  if constexpr (requires { A::kWeightFree; }) {
    return A::kWeightFree;
  } else {
    return false;
  }
}

// The compile-time contract every algorithm satisfies. Engines are
// templates over `Algo`; this concept documents and enforces the surface.
template <typename A>
concept GraphAlgorithm = requires(const A algo, typename A::Aggregate* agg,
                                  const typename A::Aggregate& agg_const,
                                  const typename A::Value& value,
                                  const typename A::Contribution& contribution,
                                  VertexId v, Weight w, const VertexContext& ctx) {
  typename A::Value;
  typename A::Aggregate;
  typename A::Contribution;
  { A::kKind } -> std::convertible_to<AggregationKind>;
  { algo.InitialValue(v, ctx) } -> std::same_as<typename A::Value>;
  { algo.IdentityAggregate() } -> std::same_as<typename A::Aggregate>;
  { algo.ContributionOf(v, value, w, ctx) } -> std::same_as<typename A::Contribution>;
  { algo.AggregateAtomic(agg, contribution) };
  { algo.RetractAtomic(agg, contribution) };
  { algo.AggregateOwned(agg, contribution) };
  { algo.RetractOwned(agg, contribution) };
  { algo.VertexCompute(v, agg_const, ctx) } -> std::same_as<typename A::Value>;
  { algo.ValuesDiffer(value, value) } -> std::same_as<bool>;
};

}  // namespace graphbolt

#endif  // SRC_CORE_ALGORITHM_H_

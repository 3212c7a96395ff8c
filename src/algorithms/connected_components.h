// Connected Components via label propagation with a min aggregation:
//
//   c_i(v) = min( v,  min_{(u,v) ∈ E} c_{i-1}(u) )
//
// On a symmetric (undirected-style) graph this converges to the weakly
// connected component id (the minimum vertex id in the component); on a
// digraph it labels vertices by the smallest id that can reach them. The
// aggregation is non-decomposable (min) and monotonic: edge additions only
// lower labels, so addition-only batches use the engine's push fast path,
// while deletions trigger min re-evaluation — the same machinery the paper
// exercises with SSSP (§3.3, §5.4B).
#ifndef SRC_ALGORITHMS_CONNECTED_COMPONENTS_H_
#define SRC_ALGORITHMS_CONNECTED_COMPONENTS_H_

#include "src/core/algorithm.h"
#include "src/parallel/atomics.h"
#include "src/util/logging.h"

namespace graphbolt {

class ConnectedComponents {
 public:
  using Value = double;         // component label (smallest reaching id)
  using Aggregate = double;
  using Contribution = double;

  static constexpr AggregationKind kKind = AggregationKind::kNonDecomposable;
  static constexpr bool kMonotonic = true;
  static constexpr bool kSelective = true;  // min returns one of its inputs
  static constexpr bool kContextFree = true;  // the label itself is the candidate

  Value InitialValue(VertexId v, const VertexContext& /*ctx*/) const {
    return static_cast<Value>(v);
  }

  Aggregate IdentityAggregate() const { return kNoLabel; }

  Contribution ContributionOf(VertexId /*u*/, const Value& value, Weight /*w*/,
                              const VertexContext& /*ctx*/) const {
    return value;
  }

  void AggregateAtomic(Aggregate* agg, const Contribution& c) const { AtomicMin(agg, c); }

  void RetractAtomic(Aggregate* /*agg*/, const Contribution& /*c*/) const {
    GB_CHECK(false) << "min aggregation is non-decomposable; retraction is undefined";
  }

  void AggregateOwned(Aggregate* agg, const Contribution& c) const { if (c < *agg) *agg = c; }
  void RetractOwned(Aggregate* agg, const Contribution& c) const { RetractAtomic(agg, c); }

  Value VertexCompute(VertexId v, const Aggregate& agg, const VertexContext& /*ctx*/) const {
    const Value own = static_cast<Value>(v);
    return agg < own ? agg : own;
  }

  bool ValuesDiffer(const Value& a, const Value& b) const { return a != b; }

 private:
  static constexpr double kNoLabel = 1e30;  // identity: no incoming label
};

}  // namespace graphbolt

#endif  // SRC_ALGORITHMS_CONNECTED_COMPONENTS_H_

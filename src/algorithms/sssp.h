// Single-Source Shortest Paths and BFS as non-decomposable min aggregations
// (§3.3 "Aggregation Properties & Extensions", §5.4B).
//
//   g(v) = min_{(u,v) ∈ E} ( c(u) + weight(u,v) )
//   c(v) = v == source ? 0 : g(v)
//
// min has no inverse, so the engine re-evaluates impacted vertices by
// pulling their full in-neighborhood — the re-evaluation strategy the paper
// uses when comparing against KickStarter. Run in convergence mode: rounds
// are Bellman–Ford iterations.
#ifndef SRC_ALGORITHMS_SSSP_H_
#define SRC_ALGORITHMS_SSSP_H_

#include <algorithm>

#include "src/core/algorithm.h"
#include "src/parallel/atomics.h"
#include "src/util/logging.h"

namespace graphbolt {

inline constexpr double kUnreachable = 1e30;

class Sssp {
 public:
  using Value = double;
  using Aggregate = double;
  using Contribution = double;

  static constexpr AggregationKind kKind = AggregationKind::kNonDecomposable;
  static constexpr bool kMonotonic = true;
  static constexpr bool kContextFree = true;  // candidate = value + w, degree-blind

  explicit Sssp(VertexId source) : source_(source) {}

  Value InitialValue(VertexId v, const VertexContext& /*ctx*/) const {
    return v == source_ ? 0.0 : kUnreachable;
  }

  Aggregate IdentityAggregate() const { return kUnreachable; }

  Contribution ContributionOf(VertexId /*u*/, const Value& value, Weight w,
                              const VertexContext& /*ctx*/) const {
    return value >= kUnreachable ? kUnreachable : value + w;
  }

  void AggregateAtomic(Aggregate* agg, const Contribution& c) const { AtomicMin(agg, c); }

  void RetractAtomic(Aggregate* /*agg*/, const Contribution& /*c*/) const {
    GB_CHECK(false) << "min aggregation is non-decomposable; retraction is undefined";
  }

  void AggregateOwned(Aggregate* agg, const Contribution& c) const { if (c < *agg) *agg = c; }
  void RetractOwned(Aggregate* agg, const Contribution& c) const { RetractAtomic(agg, c); }

  Value VertexCompute(VertexId v, const Aggregate& agg, const VertexContext& /*ctx*/) const {
    return v == source_ ? 0.0 : agg;
  }

  bool ValuesDiffer(const Value& a, const Value& b) const { return a != b; }

  VertexId source() const { return source_; }

 private:
  VertexId source_;
};

// Breadth-first search: shortest hop count, ignoring edge weights.
class Bfs {
 public:
  using Value = double;
  using Aggregate = double;
  using Contribution = double;

  static constexpr AggregationKind kKind = AggregationKind::kNonDecomposable;
  static constexpr bool kMonotonic = true;
  static constexpr bool kContextFree = true;  // candidate = value + 1, degree-blind

  explicit Bfs(VertexId source) : source_(source) {}

  Value InitialValue(VertexId v, const VertexContext& /*ctx*/) const {
    return v == source_ ? 0.0 : kUnreachable;
  }

  Aggregate IdentityAggregate() const { return kUnreachable; }

  Contribution ContributionOf(VertexId /*u*/, const Value& value, Weight /*w*/,
                              const VertexContext& /*ctx*/) const {
    return value >= kUnreachable ? kUnreachable : value + 1.0;
  }

  void AggregateAtomic(Aggregate* agg, const Contribution& c) const { AtomicMin(agg, c); }

  void RetractAtomic(Aggregate* /*agg*/, const Contribution& /*c*/) const {
    GB_CHECK(false) << "min aggregation is non-decomposable; retraction is undefined";
  }

  void AggregateOwned(Aggregate* agg, const Contribution& c) const { if (c < *agg) *agg = c; }
  void RetractOwned(Aggregate* agg, const Contribution& c) const { RetractAtomic(agg, c); }

  Value VertexCompute(VertexId v, const Aggregate& agg, const VertexContext& /*ctx*/) const {
    return v == source_ ? 0.0 : agg;
  }

  bool ValuesDiffer(const Value& a, const Value& b) const { return a != b; }

  VertexId source() const { return source_; }

 private:
  VertexId source_;
};

}  // namespace graphbolt

#endif  // SRC_ALGORITHMS_SSSP_H_

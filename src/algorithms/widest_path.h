// Single-source widest path (maximum bottleneck capacity):
//
//   c_i(v) = max_{(u,v) ∈ E}  min( c_{i-1}(u), weight(u,v) ),   c(source) = ∞
//
// A second non-decomposable aggregation (max of mins) exercising the
// engine's re-evaluation machinery with the opposite monotonicity to SSSP:
// edge additions only *raise* capacities, deletions lower them.
#ifndef SRC_ALGORITHMS_WIDEST_PATH_H_
#define SRC_ALGORITHMS_WIDEST_PATH_H_

#include <algorithm>

#include "src/core/algorithm.h"
#include "src/parallel/atomics.h"
#include "src/util/logging.h"

namespace graphbolt {

inline constexpr double kInfiniteCapacity = 1e30;

class WidestPath {
 public:
  using Value = double;   // best bottleneck capacity from the source
  using Aggregate = double;
  using Contribution = double;

  static constexpr AggregationKind kKind = AggregationKind::kNonDecomposable;
  static constexpr bool kMonotonic = true;  // additions only improve (raise) values
  static constexpr bool kContextFree = true;  // candidate = min(value, w), degree-blind

  explicit WidestPath(VertexId source) : source_(source) {}

  Value InitialValue(VertexId v, const VertexContext& /*ctx*/) const {
    return v == source_ ? kInfiniteCapacity : 0.0;
  }

  Aggregate IdentityAggregate() const { return 0.0; }

  Contribution ContributionOf(VertexId /*u*/, const Value& value, Weight w,
                              const VertexContext& /*ctx*/) const {
    return std::min(value, static_cast<double>(w));
  }

  void AggregateAtomic(Aggregate* agg, const Contribution& c) const { AtomicMax(agg, c); }

  void RetractAtomic(Aggregate* /*agg*/, const Contribution& /*c*/) const {
    GB_CHECK(false) << "max aggregation is non-decomposable; retraction is undefined";
  }

  void AggregateOwned(Aggregate* agg, const Contribution& c) const { if (*agg < c) *agg = c; }
  void RetractOwned(Aggregate* agg, const Contribution& c) const { RetractAtomic(agg, c); }

  Value VertexCompute(VertexId v, const Aggregate& agg, const VertexContext& /*ctx*/) const {
    return v == source_ ? kInfiniteCapacity : agg;
  }

  bool ValuesDiffer(const Value& a, const Value& b) const { return a != b; }

  VertexId source() const { return source_; }

 private:
  VertexId source_;
};

}  // namespace graphbolt

#endif  // SRC_ALGORITHMS_WIDEST_PATH_H_

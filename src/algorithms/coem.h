// Co-Training Expectation Maximization (Table 4):
//
//   c(v) = Σ_{(u,v) ∈ E} c(u)·weight(u,v) / Σ_{(w,v) ∈ E} weight(w,v)
//
// Semi-supervised named-entity scoring: a set of seed vertices is clamped
// to score 1. The numerator is a decomposable weighted sum; the denominator
// is the in-weight sum provided by the vertex context, so a structural
// mutation that changes it is picked up through the context-change frontier.
#ifndef SRC_ALGORITHMS_COEM_H_
#define SRC_ALGORITHMS_COEM_H_

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/algorithm.h"
#include "src/parallel/atomics.h"
#include "src/util/random.h"

namespace graphbolt {

class CoEM {
 public:
  using Value = double;
  using Aggregate = double;
  using Contribution = double;

  static constexpr AggregationKind kKind = AggregationKind::kDecomposable;

  CoEM(VertexId num_vertices, double seed_fraction = 0.05, uint64_t seed = 11,
       double tolerance = 1e-9)
      : seeds_(std::make_shared<std::vector<uint8_t>>(num_vertices, uint8_t{0})),
        tolerance_(tolerance) {
    Rng rng(seed);
    const auto num_seeds = static_cast<VertexId>(static_cast<double>(num_vertices) * seed_fraction);
    for (VertexId i = 0; i < num_seeds; ++i) {
      (*seeds_)[rng.NextBounded(num_vertices)] = 1;
    }
  }

  Value InitialValue(VertexId v, const VertexContext& /*ctx*/) const {
    return IsSeed(v) ? 1.0 : 0.0;
  }

  Aggregate IdentityAggregate() const { return 0.0; }

  Contribution ContributionOf(VertexId /*u*/, const Value& value, Weight w,
                              const VertexContext& /*ctx*/) const {
    return value * w;
  }

  Contribution DeltaContribution(VertexId /*u*/, const Value& old_value, const Value& new_value,
                                 Weight w, const VertexContext& /*old_ctx*/,
                                 const VertexContext& /*new_ctx*/) const {
    return (new_value - old_value) * w;
  }

  void AggregateAtomic(Aggregate* agg, const Contribution& c) const { AtomicAdd(agg, c); }
  void RetractAtomic(Aggregate* agg, const Contribution& c) const { AtomicAdd(agg, -c); }
  void AggregateOwned(Aggregate* agg, const Contribution& c) const { *agg += c; }
  void RetractOwned(Aggregate* agg, const Contribution& c) const { *agg -= c; }

  Value VertexCompute(VertexId v, const Aggregate& agg, const VertexContext& ctx) const {
    if (IsSeed(v)) {
      return 1.0;
    }
    if (ctx.in_weight_sum <= 0.0) {
      return 0.0;
    }
    return agg / ctx.in_weight_sum;
  }

  bool ValuesDiffer(const Value& a, const Value& b) const { return std::fabs(a - b) > tolerance_; }

  bool IsSeed(VertexId v) const { return v < seeds_->size() && (*seeds_)[v] != 0; }

 private:
  std::shared_ptr<std::vector<uint8_t>> seeds_;
  double tolerance_;
};

}  // namespace graphbolt

#endif  // SRC_ALGORITHMS_COEM_H_

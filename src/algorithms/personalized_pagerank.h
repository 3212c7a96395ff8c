// Personalized PageRank: random walks teleport back to a source set S
// instead of the uniform distribution:
//
//   c(v) = 0.15·[v ∈ S]·|V|/|S| + 0.85 · Σ_{(u,v)} c(u)/out_degree(u)
//
// Same decomposable sum as PageRank — including the propagateDelta fast
// path — but with a sparse, localized solution, which makes incremental
// refinement dramatically cheaper: mutations far from the personalization
// set barely perturb anything.
#ifndef SRC_ALGORITHMS_PERSONALIZED_PAGERANK_H_
#define SRC_ALGORITHMS_PERSONALIZED_PAGERANK_H_

#include <cmath>
#include <memory>
#include <vector>

#include "src/core/algorithm.h"
#include "src/parallel/atomics.h"

namespace graphbolt {

class PersonalizedPageRank {
 public:
  using Value = double;
  using Aggregate = double;
  using Contribution = double;

  static constexpr AggregationKind kKind = AggregationKind::kDecomposable;

  PersonalizedPageRank(std::vector<VertexId> sources, VertexId num_vertices,
                       double damping = 0.85, double tolerance = 1e-9)
      : in_source_set_(std::make_shared<std::vector<uint8_t>>(num_vertices, uint8_t{0})),
        damping_(damping),
        tolerance_(tolerance) {
    for (const VertexId s : sources) {
      (*in_source_set_)[s] = 1;
    }
    size_t count = 0;
    for (const uint8_t flag : *in_source_set_) {
      count += flag;
    }
    teleport_mass_ = count > 0 ? static_cast<double>(num_vertices) / static_cast<double>(count)
                               : 0.0;
  }

  Value InitialValue(VertexId v, const VertexContext& /*ctx*/) const {
    return Teleport(v);
  }

  Aggregate IdentityAggregate() const { return 0.0; }

  Contribution ContributionOf(VertexId /*u*/, const Value& value, Weight /*w*/,
                              const VertexContext& ctx) const {
    return value / Fanout(ctx);
  }

  Contribution DeltaContribution(VertexId /*u*/, const Value& old_value, const Value& new_value,
                                 Weight /*w*/, const VertexContext& old_ctx,
                                 const VertexContext& new_ctx) const {
    return new_value / Fanout(new_ctx) - old_value / Fanout(old_ctx);
  }

  void AggregateAtomic(Aggregate* agg, const Contribution& c) const { AtomicAdd(agg, c); }
  void RetractAtomic(Aggregate* agg, const Contribution& c) const { AtomicAdd(agg, -c); }
  void AggregateOwned(Aggregate* agg, const Contribution& c) const { *agg += c; }
  void RetractOwned(Aggregate* agg, const Contribution& c) const { *agg -= c; }

  Value VertexCompute(VertexId v, const Aggregate& agg, const VertexContext& /*ctx*/) const {
    return (1.0 - damping_) * Teleport(v) + damping_ * agg;
  }

  bool ValuesDiffer(const Value& a, const Value& b) const { return std::fabs(a - b) > tolerance_; }

  bool IsSource(VertexId v) const {
    return v < in_source_set_->size() && (*in_source_set_)[v] != 0;
  }

 private:
  static double Fanout(const VertexContext& ctx) {
    return ctx.out_degree > 0 ? static_cast<double>(ctx.out_degree) : 1.0;
  }

  double Teleport(VertexId v) const { return IsSource(v) ? teleport_mass_ : 0.0; }

  std::shared_ptr<std::vector<uint8_t>> in_source_set_;
  double teleport_mass_ = 0.0;
  double damping_;
  double tolerance_;
};

}  // namespace graphbolt

#endif  // SRC_ALGORITHMS_PERSONALIZED_PAGERANK_H_

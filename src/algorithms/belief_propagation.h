// Loopy Belief Propagation (Table 4):
//
//   ∀s: agg(v)[s] = Π_{(u,v) ∈ E}  Σ_{s'} φ(u,s')·ψ(u,v,s',s)·c(u,s')
//   c(v) = normalize(agg(v))
//
// The aggregation is a per-state product over transformed vertex values — a
// *complex* aggregation in the paper's taxonomy (§3.3): old contributions
// cannot be diffed away, so the engine re-derives them from old values on
// the fly and issues retract+propagate pairs (Algorithm 2).
//
// Numerical note: we carry the product in log space, so retract divides by
// subtracting logs. This is a monotone reparameterization of the paper's
// atomicMultiply/atomicDivide (same semantics, same incremental structure)
// that stays finite for the hub vertices of power-law graphs, where a raw
// product of thousands of normalized messages underflows doubles.
#ifndef SRC_ALGORITHMS_BELIEF_PROPAGATION_H_
#define SRC_ALGORITHMS_BELIEF_PROPAGATION_H_

#include <array>
#include <cmath>
#include <cstdint>

#include "src/core/algorithm.h"
#include "src/parallel/atomics.h"

namespace graphbolt {

template <int kStates = 3>
class BeliefPropagation {
 public:
  // Values are normalized state distributions; aggregates are per-state
  // log-products of incoming messages.
  using Value = std::array<double, kStates>;
  using Aggregate = std::array<double, kStates>;
  using Contribution = std::array<double, kStates>;  // log message

  static constexpr AggregationKind kKind = AggregationKind::kComplex;
  // The message is a function of the source alone; ψ is shared by every
  // edge, so the edge weight plays no part (IsWeightFreeAlgorithm).
  static constexpr bool kWeightFree = true;

  explicit BeliefPropagation(uint64_t prior_seed = 13, double tolerance = 1e-9)
      : prior_seed_(prior_seed), tolerance_(tolerance) {}

  Value InitialValue(VertexId /*v*/, const VertexContext& /*ctx*/) const {
    Value value;
    value.fill(1.0 / kStates);
    return value;
  }

  Aggregate IdentityAggregate() const {
    Aggregate agg{};  // log 1 = 0 per state
    return agg;
  }

  Contribution ContributionOf(VertexId u, const Value& value, Weight /*w*/,
                              const VertexContext& /*ctx*/) const {
    // Message from u: m[s] = Σ_{s'} φ(u,s')·ψ(s',s)·value[s'], normalized and
    // clamped away from zero, carried as logs.
    std::array<double, kStates> message{};
    double total = 0.0;
    for (int s = 0; s < kStates; ++s) {
      double m = 0.0;
      for (int sp = 0; sp < kStates; ++sp) {
        m += Phi(u, sp) * Psi(sp, s) * value[sp];
      }
      message[s] = m;
      total += m;
    }
    Contribution log_message;
    for (int s = 0; s < kStates; ++s) {
      const double normalized = total > 0.0 ? message[s] / total : 1.0 / kStates;
      log_message[s] = std::log(normalized < kMinProb ? kMinProb : normalized);
    }
    return log_message;
  }

  void AggregateAtomic(Aggregate* agg, const Contribution& c) const {
    for (int s = 0; s < kStates; ++s) {
      AtomicAdd(&(*agg)[s], c[s]);
    }
  }

  void RetractAtomic(Aggregate* agg, const Contribution& c) const {
    for (int s = 0; s < kStates; ++s) {
      AtomicAdd(&(*agg)[s], -c[s]);
    }
  }

  void AggregateOwned(Aggregate* agg, const Contribution& c) const {
    for (int s = 0; s < kStates; ++s) (*agg)[s] += c[s];
  }

  void RetractOwned(Aggregate* agg, const Contribution& c) const {
    for (int s = 0; s < kStates; ++s) (*agg)[s] -= c[s];
  }

  Value VertexCompute(VertexId /*v*/, const Aggregate& agg, const VertexContext& /*ctx*/) const {
    // Softmax: normalized product of the aggregated (log) messages.
    double max_log = agg[0];
    for (int s = 1; s < kStates; ++s) {
      max_log = std::max(max_log, agg[s]);
    }
    Value value;
    double total = 0.0;
    for (int s = 0; s < kStates; ++s) {
      value[s] = std::exp(agg[s] - max_log);
      total += value[s];
    }
    for (int s = 0; s < kStates; ++s) {
      value[s] /= total;
    }
    return value;
  }

  bool ValuesDiffer(const Value& a, const Value& b) const {
    for (int s = 0; s < kStates; ++s) {
      if (std::fabs(a[s] - b[s]) > tolerance_) {
        return true;
      }
    }
    return false;
  }

  // Vertex prior φ(v, s): deterministic pseudo-random in [0.2, 1.0].
  double Phi(VertexId v, int s) const {
    uint64_t h = prior_seed_ ^ (static_cast<uint64_t>(v) * 0x9e3779b97f4a7c15ULL + s);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return 0.2 + 0.8 * static_cast<double>(h >> 11) * 0x1.0p-53;
  }

  // Edge potential ψ(s', s): smoothing matrix favoring state agreement.
  static double Psi(int from, int to) {
    return from == to ? 0.6 : 0.4 / (kStates - 1);
  }

 private:
  static constexpr double kMinProb = 1e-6;

  uint64_t prior_seed_;
  double tolerance_;
};

}  // namespace graphbolt

#endif  // SRC_ALGORITHMS_BELIEF_PROPAGATION_H_

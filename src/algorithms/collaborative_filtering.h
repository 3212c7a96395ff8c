// Collaborative Filtering via Alternating Least Squares (Table 4, §3.3):
//
//   g(v) = ⟨ Σ_{(u,v) ∈ E} c(u)·c(u)ᵗ ,  Σ_{(u,v) ∈ E} c(u)·weight(u,v) ⟩
//   c(v) = (M + λI)⁻¹ · b    where (M, b) = g(v)
//
// This is the paper's canonical *complex* aggregation: it statically
// decomposes into two simple sums, but the first sum's inputs are
// transformed values (outer products), so incremental updates re-derive the
// old discrete contribution c(u)·c(u)ᵗ from the old value on the fly and
// subtract it (§3.3 step 2). The engine's retract+propagate pair realizes
// exactly that.
#ifndef SRC_ALGORITHMS_COLLABORATIVE_FILTERING_H_
#define SRC_ALGORITHMS_COLLABORATIVE_FILTERING_H_

#include <array>
#include <cmath>
#include <cstdint>

#include "src/core/algorithm.h"
#include "src/parallel/atomics.h"

namespace graphbolt {

template <int kRank = 4>
class CollaborativeFiltering {
 public:
  using Value = std::array<double, kRank>;
  // Aggregate layout: [0, kRank*kRank) = M (row major), then [.., +kRank) = b.
  using Aggregate = std::array<double, kRank * kRank + kRank>;
  using Contribution = Aggregate;

  static constexpr AggregationKind kKind = AggregationKind::kComplex;

  // `relaxation` in (0, 1] blends the least-squares solution toward the
  // vertex's deterministic prior: x = (1-α)·prior + α·(M+λI)⁻¹b. Plain
  // simultaneous ALS (α = 1) has rotational freedom — equivalent latent
  // solutions keep drifting, so values never stabilize iteration over
  // iteration. Under-relaxation (α ≈ 0.3) anchors the factorization and
  // makes the iteration contract, which is the regime in which the paper's
  // CF numbers (stabilizing values, cheap refinement) were collected.
  explicit CollaborativeFiltering(double lambda = 0.05, uint64_t seed = 17,
                                  double tolerance = 1e-9, double relaxation = 1.0)
      : lambda_(lambda), seed_(seed), tolerance_(tolerance), relaxation_(relaxation) {}

  // Deterministic pseudo-random latent vectors in [0.1, 1.1).
  Value InitialValue(VertexId v, const VertexContext& /*ctx*/) const {
    Value value;
    for (int k = 0; k < kRank; ++k) {
      uint64_t h = seed_ ^ (static_cast<uint64_t>(v) * 0x2545f4914f6cdd1dULL + k);
      h ^= h >> 29;
      h *= 0xbf58476d1ce4e5b9ULL;
      h ^= h >> 32;
      value[k] = 0.1 + static_cast<double>(h >> 11) * 0x1.0p-53;
    }
    return value;
  }

  Aggregate IdentityAggregate() const {
    Aggregate agg{};
    return agg;
  }

  Contribution ContributionOf(VertexId /*u*/, const Value& value, Weight w,
                              const VertexContext& /*ctx*/) const {
    Contribution c{};
    for (int i = 0; i < kRank; ++i) {
      for (int j = 0; j < kRank; ++j) {
        c[i * kRank + j] = value[i] * value[j];
      }
      c[kRank * kRank + i] = value[i] * w;
    }
    return c;
  }

  void AggregateAtomic(Aggregate* agg, const Contribution& c) const {
    for (size_t i = 0; i < c.size(); ++i) {
      AtomicAdd(&(*agg)[i], c[i]);
    }
  }

  void RetractAtomic(Aggregate* agg, const Contribution& c) const {
    for (size_t i = 0; i < c.size(); ++i) {
      AtomicAdd(&(*agg)[i], -c[i]);
    }
  }

  void AggregateOwned(Aggregate* agg, const Contribution& c) const {
    for (size_t i = 0; i < c.size(); ++i) (*agg)[i] += c[i];
  }

  void RetractOwned(Aggregate* agg, const Contribution& c) const {
    for (size_t i = 0; i < c.size(); ++i) (*agg)[i] -= c[i];
  }

  // Solves (M + λI) x = b with Gaussian elimination and partial pivoting.
  Value VertexCompute(VertexId v, const Aggregate& agg, const VertexContext& ctx) const {
    if (ctx.in_degree == 0) {
      return InitialValue(v, ctx);  // no ratings: keep the prior
    }
    double m[kRank][kRank + 1];
    for (int i = 0; i < kRank; ++i) {
      for (int j = 0; j < kRank; ++j) {
        m[i][j] = agg[i * kRank + j] + (i == j ? lambda_ : 0.0);
      }
      m[i][kRank] = agg[kRank * kRank + i];
    }
    for (int col = 0; col < kRank; ++col) {
      int pivot = col;
      for (int row = col + 1; row < kRank; ++row) {
        if (std::fabs(m[row][col]) > std::fabs(m[pivot][col])) {
          pivot = row;
        }
      }
      for (int j = 0; j <= kRank; ++j) {
        std::swap(m[col][j], m[pivot][j]);
      }
      const double diag = m[col][col];
      if (std::fabs(diag) < 1e-12) {
        continue;  // singular direction: λI keeps this rare
      }
      for (int row = 0; row < kRank; ++row) {
        if (row == col) {
          continue;
        }
        const double factor = m[row][col] / diag;
        for (int j = col; j <= kRank; ++j) {
          m[row][j] -= factor * m[col][j];
        }
      }
    }
    Value value;
    for (int i = 0; i < kRank; ++i) {
      value[i] = std::fabs(m[i][i]) < 1e-12 ? 0.0 : m[i][kRank] / m[i][i];
    }
    if (relaxation_ < 1.0) {
      const Value prior = InitialValue(v, ctx);
      for (int i = 0; i < kRank; ++i) {
        value[i] = (1.0 - relaxation_) * prior[i] + relaxation_ * value[i];
      }
    }
    return value;
  }

  bool ValuesDiffer(const Value& a, const Value& b) const {
    for (int k = 0; k < kRank; ++k) {
      if (std::fabs(a[k] - b[k]) > tolerance_) {
        return true;
      }
    }
    return false;
  }

 private:
  double lambda_;
  uint64_t seed_;
  double tolerance_;
  double relaxation_;
};

}  // namespace graphbolt

#endif  // SRC_ALGORITHMS_COLLABORATIVE_FILTERING_H_

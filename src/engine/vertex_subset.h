// Ligra-style vertex subsets (frontiers).
//
// A VertexSubset is the set of vertices active in a processing step. It is
// held either in sparse form (packed, sorted id vector) or, when dense, as
// its membership bitset alone; FrontierBuilder::TakeAuto picks the form by
// |subset| like Ligra's direction optimization.
#ifndef SRC_ENGINE_VERTEX_SUBSET_H_
#define SRC_ENGINE_VERTEX_SUBSET_H_

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "src/graph/types.h"
#include "src/parallel/parallel_for.h"
#include "src/parallel/reducer.h"
#include "src/util/bitset.h"
#include "src/util/logging.h"

namespace graphbolt {

// Ligra's direction rule, shared by the edge axis and the vertex axis:
// past 1/kDenseDenominator of the graph, a pass over the whole graph beats
// a walk over the frontier.
inline constexpr uint64_t kDenseDenominator = 20;

// Pull once the frontier's out-edges exceed |E| / kDenseDenominator. The
// GraphBolt engine's refinement levels choose their direction with it.
inline bool PreferPull(uint64_t frontier_edges, uint64_t num_edges) {
  return frontier_edges > num_edges / kDenseDenominator;
}

class VertexSubset {
 public:
  VertexSubset() = default;

  explicit VertexSubset(VertexId universe) : universe_(universe) {}

  // A subset containing every vertex in [0, universe).
  static VertexSubset All(VertexId universe) {
    VertexSubset s(universe);
    s.members_.resize(universe);
    for (VertexId v = 0; v < universe; ++v) {
      s.members_[v] = v;
    }
    return s;
  }

  // Wraps an already-sorted, duplicate-free member vector
  // (FrontierBuilder::Take).
  static VertexSubset FromSorted(VertexId universe, std::vector<VertexId> members) {
    VertexSubset s(universe);
    s.members_ = std::move(members);
    return s;
  }

  // A subset defined by its dense bitset alone (FrontierBuilder::TakeAuto's
  // dense pick). `bits` must be sized to the universe and hold exactly
  // `count` set bits. The sparse member list is materialized lazily on
  // first members() access, so a consumer that only reads Dense() never
  // pays the O(universe) pack at all.
  static VertexSubset FromDense(VertexId universe, const AtomicBitset& bits, size_t count) {
    VertexSubset s(universe);
    s.dense_ = bits;
    s.dense_count_ = count;
    s.sparse_valid_ = false;
    return s;
  }

  VertexId universe() const { return universe_; }
  size_t size() const { return sparse_valid_ ? members_.size() : dense_count_; }
  bool Empty() const { return size() == 0; }

  // True while the subset is held in dense-only form (FromDense): Dense()
  // is free, members() would pay the O(universe) pack. Consumers with an
  // index-free walk branch on this to sweep the bitset instead; both walks
  // ascend, so a single-threaded consumer visits the same vertices in the
  // same order either way.
  bool dense_only() const { return !sparse_valid_; }

  const std::vector<VertexId>& members() const {
    MaterializeSparse();
    return members_;
  }

  // The membership bitset of a subset born dense-only (FromDense). A
  // sparse-born subset has none.
  const AtomicBitset& Dense() const {
    GB_DCHECK(dense_.size() == universe_) << "Dense() on a sparse-born VertexSubset";
    return dense_;
  }

 private:
  // Packs the dense bitset into the sparse member vector (sorted by
  // construction). The slow path of a dense-only subset; a no-op otherwise.
  void MaterializeSparse() const {
    if (sparse_valid_) {
      return;
    }
    members_.clear();
    members_.reserve(dense_count_);
    dense_.ForEachSet([&](size_t v) { members_.push_back(static_cast<VertexId>(v)); });
    sparse_valid_ = true;
  }

  VertexId universe_ = 0;
  mutable std::vector<VertexId> members_;
  AtomicBitset dense_;
  // False while the subset is dense-only: members_ is empty, dense_ is
  // authoritative, and dense_count_ carries |subset|.
  mutable bool sparse_valid_ = true;
  size_t dense_count_ = 0;
};

// Process-wide free list of claim bitsets for FrontierBuilder. The engines
// construct one builder per step, and a refinement iteration runs many
// steps over the same universe — without pooling each step pays an
// O(V/8)-byte allocation plus first-touch page faults. Acquire() hands back
// a cleared bitset (resized only when the universe changed); Release()
// clears and parks it. The mutex is uncontended in practice: builders are
// created and destroyed on the calling thread of a step, not inside the
// parallel region.
class FrontierBitsetPool {
 public:
  static FrontierBitsetPool& Instance() {
    static FrontierBitsetPool pool;
    return pool;
  }

  AtomicBitset Acquire(VertexId universe) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!free_.empty()) {
        AtomicBitset bits = std::move(free_.back());
        free_.pop_back();
        ++reuses_;
        if (bits.size() != static_cast<size_t>(universe)) {
          bits.Resize(universe);
        }
        return bits;  // cleared on Release, so ready to claim into
      }
      ++allocations_;
    }
    return AtomicBitset(universe);
  }

  void Release(AtomicBitset&& bits) {
    bits.ClearAll();
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.size() < kMaxPooled) {
      free_.push_back(std::move(bits));
    }
  }

  // Builders served from the free list vs. fresh allocations (cumulative).
  uint64_t reuses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return reuses_;
  }
  uint64_t allocations() const {
    std::lock_guard<std::mutex> lock(mu_);
    return allocations_;
  }

 private:
  // Nested builders are rare (one per live step); a short list bounds the
  // idle footprint while covering fork-join step pipelines.
  static constexpr size_t kMaxPooled = 8;

  mutable std::mutex mu_;
  std::vector<AtomicBitset> free_;
  uint64_t reuses_ = 0;
  uint64_t allocations_ = 0;
};

// Concurrent frontier builder: threads claim membership through an atomic
// bitset (first claim wins), and Take / TakeAuto turn the claims
// into a VertexSubset afterwards. The claim bitset is pooled
// (FrontierBitsetPool): acquired on construction, cleared and returned on
// destruction.
class FrontierBuilder {
 public:
  explicit FrontierBuilder(VertexId universe)
      : universe_(universe), claimed_(FrontierBitsetPool::Instance().Acquire(universe)) {}

  ~FrontierBuilder() { FrontierBitsetPool::Instance().Release(std::move(claimed_)); }

  FrontierBuilder(const FrontierBuilder&) = delete;
  FrontierBuilder& operator=(const FrontierBuilder&) = delete;

  // Returns true if this call claimed v (first insertion wins).
  bool Claim(VertexId v) { return claimed_.Set(v); }

  bool Contains(VertexId v) const { return claimed_.Test(v); }

  // Collects all claimed vertices into a subset, packed word by word: a
  // popcount sizes the member vector, and each word's set bits are written
  // out lowest first, so the pack costs O(universe/64 + members) and the
  // members come out ascending. A large universe is packed in blocks of
  // words (per-block popcounts, prefix sum, then a parallel fill, the same
  // shape as ParallelPrefixSum) so the whole arena sweeps it; block order
  // keeps the result sorted. The builder stays usable for further claims.
  VertexSubset Take() const {
    constexpr size_t kBlockWords = 64;  // 4096 vertices
    const size_t words = claimed_.num_words();
    auto fill = [&](size_t word_lo, size_t word_hi, VertexId* out) {
      claimed_.ForEachSetInWords(word_lo, word_hi,
                                 [&](size_t v) { *out++ = static_cast<VertexId>(v); });
    };
    std::vector<VertexId> members;
    if (words < 2 * kBlockWords) {
      members.resize(claimed_.Count());
      fill(0, words, members.data());
    } else {
      const size_t blocks = (words + kBlockWords - 1) / kBlockWords;
      auto block_words = [&](size_t b) {
        return std::pair{b * kBlockWords, std::min(words, (b + 1) * kBlockWords)};
      };
      std::vector<size_t> offsets(blocks);
      ParallelFor(0, blocks, [&](size_t b) {
        const auto [lo, hi] = block_words(b);
        offsets[b] = claimed_.CountWords(lo, hi);
      }, /*grain=*/1);
      members.resize(ExclusivePrefixSum(offsets));
      ParallelFor(0, blocks, [&](size_t b) {
        const auto [lo, hi] = block_words(b);
        fill(lo, hi, members.data() + offsets[b]);
      }, /*grain=*/1);
    }
    return VertexSubset::FromSorted(universe_, std::move(members));
  }

  // Auto-picks the result representation from the frontier's density — the
  // vertex-axis analogue of Ligra's push/pull chooser, applied at the
  // producer instead of every call site. A dense frontier (at least
  // universe / kDenseDenominator members) comes back dense-only: its
  // consumers sweep the whole universe anyway (a pull step, a bit-test
  // walk), so the O(universe) sparse pack is pure overhead. A sparse
  // frontier packs as before — a bit-test sweep would dwarf its
  // O(|frontier|) member walk.
  VertexSubset TakeAuto() const {
    const size_t count = claimed_.Count();
    if (count * kDenseDenominator >= static_cast<size_t>(universe_)) {
      return VertexSubset::FromDense(universe_, claimed_, count);
    }
    return Take();
  }

 private:
  VertexId universe_;
  AtomicBitset claimed_;
};

}  // namespace graphbolt

#endif  // SRC_ENGINE_VERTEX_SUBSET_H_

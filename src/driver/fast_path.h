// The single-update fast path: RisGraph-style safe/unsafe classification
// (PAPERS.md) grafted onto the batched GraphBolt serving stack.
//
// Batched refinement puts a whole gutter flush + BSP barrier between a
// single-edge mutation and its queryable effect. For serving traffic that
// is mostly individually harmless updates, the fast path classifies each
// mutation against engine state — the dependency store for GraphBoltEngine,
// the dependence tree for KickStarterEngine — as
//
//   safe    the batched ApplyMutations path would provably leave the
//           engine's computed state (values, store/tree) bitwise
//           unchanged: the update's entire effect is the graph splice, so
//           it is applied in place in microseconds, and
//   unsafe  anything unprovable: escalated into the existing gutter as a
//           refinement micro-batch, where the batched machinery repairs
//           values exactly.
//
// Consistency protocol (the reason this is correct, see INTERNALS §11):
//
//   - WAL ordering: every safe apply journals its 1-mutation batch at the
//     next applied sequence number *before* splicing, under the same
//     journal serialization batched applies use — so the WAL order equals
//     the apply order, and Recover()'s replay (which routes everything
//     through the batched path) reconstructs the live state bitwise. That
//     replay is exactly why "safe" is defined as batched-no-op.
//   - Engine-lock freedom: safe applies never take the driver's engine
//     mutex. They serialize against batched applies and graph maintenance
//     through the narrower journal mutex, and against each other through
//     striped per-vertex claims (VertexClaims) on the two endpoints.
//   - Epoch: a seqlock-style fast-path epoch is odd while a splice is in
//     flight. Snapshot readers (PrepQuery's value copy) read the epoch
//     stable-even before and unchanged after copying, so a served snapshot
//     is always a prefix of the admitted stream — it can never observe half
//     of a fast apply.
#ifndef SRC_DRIVER_FAST_PATH_H_
#define SRC_DRIVER_FAST_PATH_H_

#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>

#include "src/core/streaming_engine.h"
#include "src/graph/mutation.h"
#include "src/graph/types.h"

namespace graphbolt {

// A StreamingEngine that can classify and apply single-mutation updates.
// ClassifyFast is advisory (lock-free read of engine state); ApplyFastSafe
// re-validates under the caller's serialization and either splices the
// graph (true) or refuses (false: escalate to the batched path).
template <typename E>
concept FastPathEngine =
    StreamingEngine<E> && requires(E engine, const E& const_engine, const EdgeMutation& m) {
      { const_engine.ClassifyFast(m) } -> std::same_as<FastPathVerdict>;
      { engine.ApplyFastSafe(m) } -> std::same_as<bool>;
    };

// Striped per-vertex claims. A safe apply claims the stripes of its two
// endpoints (in stripe order, so concurrent claimants cannot deadlock)
// before touching the adjacency; claims are held for the sub-microsecond
// splice window only, so contention is spin-cheap. Striping keeps the
// table O(1) in the vertex count and immune to graph growth.
class VertexClaims {
 public:
  static constexpr size_t kStripes = 4096;

  // RAII claim over the (up to two) stripes covering {a, b}.
  class Guard {
   public:
    Guard(VertexClaims* claims, VertexId a, VertexId b) : claims_(claims) {
      lo_ = static_cast<uint32_t>(a % kStripes);
      hi_ = static_cast<uint32_t>(b % kStripes);
      if (lo_ > hi_) {
        std::swap(lo_, hi_);
      }
      claims_->Lock(lo_);
      if (hi_ != lo_) {
        claims_->Lock(hi_);
      }
    }
    ~Guard() {
      if (hi_ != lo_) {
        claims_->Unlock(hi_);
      }
      claims_->Unlock(lo_);
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    VertexClaims* claims_;
    uint32_t lo_ = 0;
    uint32_t hi_ = 0;
  };

 private:
  void Lock(uint32_t s) {
    int spins = 0;
    while (flags_[s].test_and_set(std::memory_order_acquire)) {
      if (++spins > 64) {
        std::this_thread::yield();
        spins = 0;
      }
    }
  }
  void Unlock(uint32_t s) { flags_[s].clear(std::memory_order_release); }

  std::atomic_flag flags_[kStripes] = {};
};

// Seqlock-style fast-path epoch: odd while a safe apply is splicing, even
// otherwise. Writers (safe applies) are already serialized by the journal
// mutex, so parity is well-defined; readers never block on it.
class FastPathEpoch {
 public:
  // Called by the (journal-serialized) applier around the splice.
  void BeginApply() { epoch_.fetch_add(1, std::memory_order_acq_rel); }
  void EndApply() { epoch_.fetch_add(1, std::memory_order_acq_rel); }

  // Spins until the epoch is even (no splice in flight) and returns it;
  // pair with Validate() after reading to detect a concurrent apply.
  uint64_t ReadStable() const {
    for (;;) {
      const uint64_t e = epoch_.load(std::memory_order_acquire);
      if ((e & 1) == 0) {
        return e;
      }
      std::this_thread::yield();
    }
  }
  bool Validate(uint64_t before) const {
    return epoch_.load(std::memory_order_acquire) == before;
  }

  // Completed safe applies (EngineStats::fastpath_epoch_flips).
  uint64_t flips() const { return epoch_.load(std::memory_order_relaxed) / 2; }

 private:
  std::atomic<uint64_t> epoch_{0};
};

// Lock-free fast-path counters, merged into EngineStats by the drivers.
struct FastPathCounters {
  std::atomic<uint64_t> safe_applied{0};
  std::atomic<uint64_t> unsafe_escalated{0};
};

}  // namespace graphbolt

#endif  // SRC_DRIVER_FAST_PATH_H_

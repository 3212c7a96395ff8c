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
//   - One lock: the driver classifies and splices under its journal mutex,
//     taken with a try-lock. Every batched apply, graph maintenance step,
//     checkpoint and recovery holds that mutex too, so nothing writes the
//     engine or the graph between ClassifyFast and the re-validation inside
//     ApplyFastSafe. A missed try-lock escalates instead of waiting.
//   - WAL ordering: every safe apply journals its 1-mutation batch at the
//     next applied sequence number *before* splicing, through the same
//     journaling step batched applies use — so the WAL order equals the
//     apply order, and Recover()'s replay (which routes everything through
//     the batched path) reconstructs the live state bitwise. That replay is
//     exactly why "safe" is defined as batched-no-op.
//   - Values: a safe apply writes the graph only, never the value vector, so
//     a snapshot copy of the values (taken under the engine mutex, which
//     excludes batched applies) is always a prefix of the admitted stream.
#ifndef SRC_DRIVER_FAST_PATH_H_
#define SRC_DRIVER_FAST_PATH_H_

#include <atomic>
#include <cstdint>

#include "src/core/streaming_engine.h"
#include "src/graph/mutation.h"
#include "src/graph/types.h"

namespace graphbolt {

// A StreamingEngine that can classify and apply single-mutation updates.
// ClassifyFast is a read of engine state; ApplyFastSafe re-validates under
// the caller's serialization and either splices the graph (true) or refuses
// (false: escalate to the batched path).
template <typename E>
concept FastPathEngine =
    StreamingEngine<E> && requires(E engine, const E& const_engine, const EdgeMutation& m) {
      { const_engine.ClassifyFast(m) } -> std::same_as<FastPathVerdict>;
      { engine.ApplyFastSafe(m) } -> std::same_as<bool>;
    };

// Lock-free fast-path counters, merged into EngineStats by the drivers.
struct FastPathCounters {
  std::atomic<uint64_t> safe_applied{0};
  std::atomic<uint64_t> unsafe_escalated{0};
};

}  // namespace graphbolt

#endif  // SRC_DRIVER_FAST_PATH_H_

// TracedEngine<E>: times every call the drivers make into an engine, from
// outside the engine.
//
// The wrapper forwards to a borrowed E and records one span per call in a
// TraceLog kept in memory (the mutable_graph getter is forwarded untimed).
// After a compute call it also copies the fields of the engine's public
// stats() that the per-layer metrics need. It offers exactly the members
// E offers, so it satisfies exactly the engine
// concepts E satisfies (tests/metrics_test.cc asserts both directions). A
// wrapper that dropped ClassifyFast, say, would silently turn the drivers'
// IngestFast into Ingest, and the traced run would measure another program.
#ifndef PERFBENCH_SRC_TRACED_ENGINE_H_
#define PERFBENCH_SRC_TRACED_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <istream>
#include <mutex>
#include <ostream>
#include <vector>

#include "perfbench/src/metrics.h"
#include "src/core/streaming_engine.h"
#include "src/driver/fast_path.h"
#include "src/engine/stats.h"
#include "src/graph/mutable_graph.h"
#include "src/graph/mutation.h"

namespace perfbench {

enum class SpanKind {
  kInitialCompute,
  kApply,       // ApplyMutations (splice + refinement)
  kClassify,    // ClassifyFast
  kApplyFast,   // ApplyFastSafe
  kSaveState,   // SaveStateTo (checkpoint serialization)
  kLoadState,   // LoadStateFrom
  kAsync,       // EnterAsyncMode / AsyncApplyMutations / AsyncStep / ExitAsyncReconcile
};

struct Span {
  SpanKind kind = SpanKind::kApply;
  Interval time;
  // Copied from the engine's stats() after InitialCompute / ApplyMutations.
  double refine_seconds = 0.0;
  double splice_seconds = 0.0;
  uint64_t edges_processed = 0;
  uint32_t iterations = 0;
  uint64_t tasks_forked = 0;
  uint64_t tasks_stolen = 0;
  uint64_t inline_runs = 0;
  // ApplyMutations only: |Ea| + |Ed| of the normalized batch.
  size_t applied_mutations = 0;
};

// Spans of one traced phase. Thread-safe: lane workers, the fast path and
// checkpoint writers record concurrently.
class TraceLog {
 public:
  void Record(const Span& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

template <graphbolt::StreamingEngine E>
class TracedEngine {
 public:
  // Neither pointer is owned; both must outlive the wrapper.
  TracedEngine(E* inner, TraceLog* log) : inner_(inner), log_(log) {}

  // ----- StreamingEngine ------------------------------------------------------
  void InitialCompute() {
    const double start = Now();
    inner_->InitialCompute();
    log_->Record(WithStats(SpanKind::kInitialCompute, start, Now()));
  }

  graphbolt::AppliedMutations ApplyMutations(const graphbolt::MutationBatch& batch) {
    const double start = Now();
    graphbolt::AppliedMutations applied = inner_->ApplyMutations(batch);
    Span span = WithStats(SpanKind::kApply, start, Now());
    span.applied_mutations = applied.added.size() + applied.deleted.size();
    log_->Record(span);
    return applied;
  }

  const graphbolt::EngineStats& stats() const { return inner_->stats(); }
  decltype(auto) values() const { return inner_->values(); }

  // ----- CheckpointableEngine -------------------------------------------------
  bool SaveStateTo(std::ostream& out) const
    requires graphbolt::CheckpointableEngine<E>
  {
    const double start = Now();
    const bool ok = inner_->SaveStateTo(out);
    log_->Record({.kind = SpanKind::kSaveState, .time = {start, Now()}});
    return ok;
  }

  bool LoadStateFrom(std::istream& in)
    requires graphbolt::CheckpointableEngine<E>
  {
    const double start = Now();
    const bool ok = inner_->LoadStateFrom(in);
    log_->Record({.kind = SpanKind::kLoadState, .time = {start, Now()}});
    return ok;
  }

  // ----- GraphMaintainableEngine ----------------------------------------------
  // A getter, forwarded untimed: the maintenance it enables runs on the
  // graph, outside the engine.
  graphbolt::MutableGraph* mutable_graph()
    requires graphbolt::GraphMaintainableEngine<E>
  {
    return inner_->mutable_graph();
  }

  // ----- FastPathEngine -------------------------------------------------------
  graphbolt::FastPathVerdict ClassifyFast(const graphbolt::EdgeMutation& m) const
    requires graphbolt::FastPathEngine<E>
  {
    const double start = Now();
    const graphbolt::FastPathVerdict verdict = inner_->ClassifyFast(m);
    log_->Record({.kind = SpanKind::kClassify, .time = {start, Now()}});
    return verdict;
  }

  bool ApplyFastSafe(const graphbolt::EdgeMutation& m)
    requires graphbolt::FastPathEngine<E>
  {
    const double start = Now();
    const bool applied = inner_->ApplyFastSafe(m);
    log_->Record({.kind = SpanKind::kApplyFast, .time = {start, Now()}});
    return applied;
  }

  // ----- AsyncDeltaEngine -----------------------------------------------------
  void EnterAsyncMode()
    requires graphbolt::AsyncDeltaEngine<E>
  {
    const double start = Now();
    inner_->EnterAsyncMode();
    log_->Record({.kind = SpanKind::kAsync, .time = {start, Now()}});
  }

  graphbolt::AppliedMutations AsyncApplyMutations(const graphbolt::MutationBatch& batch)
    requires graphbolt::AsyncDeltaEngine<E>
  {
    const double start = Now();
    graphbolt::AppliedMutations applied = inner_->AsyncApplyMutations(batch);
    log_->Record({.kind = SpanKind::kAsync, .time = {start, Now()}});
    return applied;
  }

  double AsyncStep(size_t budget)
    requires graphbolt::AsyncDeltaEngine<E>
  {
    const double start = Now();
    const double residual = inner_->AsyncStep(budget);
    log_->Record({.kind = SpanKind::kAsync, .time = {start, Now()}});
    return residual;
  }

  double AsyncResidual() const
    requires graphbolt::AsyncDeltaEngine<E>
  {
    return inner_->AsyncResidual();
  }

  void ExitAsyncReconcile()
    requires graphbolt::AsyncDeltaEngine<E>
  {
    const double start = Now();
    inner_->ExitAsyncReconcile();
    log_->Record({.kind = SpanKind::kAsync, .time = {start, Now()}});
  }

  bool async_mode() const
    requires graphbolt::AsyncDeltaEngine<E>
  {
    return inner_->async_mode();
  }

 private:
  Span WithStats(SpanKind kind, double start, double end) const {
    const graphbolt::EngineStats& s = inner_->stats();
    return {.kind = kind,
            .time = {start, end},
            .refine_seconds = s.seconds,
            .splice_seconds = s.mutation_seconds,
            .edges_processed = s.edges_processed,
            .iterations = s.iterations,
            .tasks_forked = s.tasks_forked,
            .tasks_stolen = s.tasks_stolen,
            .inline_runs = s.inline_runs};
  }

  E* inner_;
  TraceLog* log_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACED_ENGINE_H_

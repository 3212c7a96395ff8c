// The GraphBolt engine: BSP processing with dependency tracking, and
// dependency-driven value refinement on graph mutation (§3, §4).
//
// Initial computation runs the same selective-scheduling BSP loop as the
// GB-Reset baseline, but snapshots the aggregation array g_i(v) and the
// changed-vertex bits after every iteration into a DependencyStore.
//
// On a mutation batch (Ea, Ed) the engine refines the tracked levels
// iteration by iteration (§3.3):
//
//   g^T_i(v) = g_i(v)  ⊎_{(u,v) ∈ Ea} contrib(c_{i-1}(u))
//                      ⋃-_{(u,v) ∈ Ed} contrib(c_{i-1}(u))
//                      ⋃△_{(u,v) ∈ E^T, contrib changed} contrib(c^T_{i-1}(u))
//
// where "contrib changed" covers both value changes and vertex-context
// changes (a mutation changes the endpoint's degree, which changes its
// contribution along *all* its edges — Algorithm 3's old_degree/new_degree).
// The direct terms use old values with old contexts; the transitive term
// retracts (old value, old context) and aggregates (new value, new context)
// so the sum telescopes to exactly the new graph's aggregation.
//
// Each level picks its direction with Ligra's rule (PreferPull): a sparse
// frontier pushes its changes to its out-neighbours with atomic adds; a
// dense one is pulled in a single sweep in which every vertex folds in the
// changes of its frontier in-neighbours, with plain adds into the cell it
// owns, and settles its value in the same visit.
//
// Past the tracked history (horizontal pruning) the engine switches to
// computation-aware hybrid execution (§4.2): selective pull-recomputation
// seeded by the per-iteration changed-vertex bit vectors recorded during the
// original run. Every vertex whose value could change — through the new
// dynamics (out-neighbors of the current frontier) or through the original
// dynamics (the recorded changed set) — is recomputed from its full
// in-neighborhood, so the continuation is still exact BSP.
//
// Non-decomposable aggregations (min/max) cannot retract; for those the
// engine re-evaluates impacted vertices by pulling the full in-neighborhood
// at every refined level (§3.3 "Aggregation Properties & Extensions").
#ifndef SRC_CORE_GRAPHBOLT_ENGINE_H_
#define SRC_CORE_GRAPHBOLT_ENGINE_H_

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/algorithm.h"
#include "src/core/delta_kernel.h"
#include "src/core/dependency_store.h"
#include "src/core/streaming_engine.h"
#include "src/engine/edge_map.h"  // PreferPull
#include "src/engine/reset_engine.h"  // HasDeltaContribution
#include "src/engine/stats.h"
#include "src/engine/vertex_subset.h"
#include "src/graph/mutable_graph.h"
#include "src/graph/mutation.h"
#include "src/parallel/atomics.h"
#include "src/parallel/parallel_for.h"
#include "src/parallel/reducer.h"
#include "src/parallel/scheduler_scope.h"
#include "src/parallel/task_arena.h"
#include "src/util/logging.h"
#include "src/util/timer.h"

namespace graphbolt {

// `StoreT` selects the dependency-storage backend: the default dense
// per-level DependencyStore, or CompactDependencyStore for the paper's
// per-vertex contiguous layout with real vertical-pruning savings.
template <GraphAlgorithm Algo, typename StoreT = DependencyStore<typename Algo::Aggregate>>
class GraphBoltEngine {
 public:
  using Value = typename Algo::Value;
  using Aggregate = typename Algo::Aggregate;

  struct Options {
    uint32_t max_iterations = 10;
    bool run_to_convergence = false;
    // Horizontal pruning: number of iterations whose aggregations are
    // tracked. Refinement past this point uses hybrid execution. Must be
    // at least 1.
    uint32_t history_size = 1u << 30;
    // Forces retract+propagate pairs even when the algorithm offers a
    // combined delta (the GraphBolt-RP configuration of §5.4A).
    bool use_retract_propagate = false;
    // Computation-aware fallback (extension): when > 0, a batch mutating
    // more than this fraction of the graph's edges triggers a full
    // recompute-with-tracking instead of refinement — at such densities
    // refinement cost approaches (or exceeds) a GB-Reset restart.
    double reset_fallback_fraction = 0.0;
    // Ablation switch: disables the monotonic push fast path for
    // addition-only batches, forcing full min/max re-evaluation.
    bool disable_monotonic_push = false;
  };

  GraphBoltEngine(MutableGraph* graph, Algo algo, Options options = {})
      : graph_(graph), algo_(std::move(algo)), options_(options) {
    GB_CHECK(options_.history_size >= 1) << "history_size must be >= 1";
  }

  // Runs the full computation from initial values, tracking dependencies.
  void InitialCompute() {
    Timer timer;
    SchedulerCounterScope scheduler(&stats_);
    stats_.Clear();
    ResetContexts();
    const VertexId n = graph_->num_vertices();
    store_.Reset(n, options_.history_size);
    values_.assign(n, Value{});
    aggregates_.assign(n, algo_.IdentityAggregate());
    ParallelFor(0, n, [&](size_t v) {
      values_[v] = algo_.InitialValue(static_cast<VertexId>(v), contexts_[v]);
    });

    std::vector<std::pair<VertexId, Value>> frontier = FirstIteration();
    while (store_.total_levels() < options_.max_iterations) {
      if (options_.run_to_convergence && frontier.empty()) {
        break;
      }
      frontier = TrackedIteration(frontier);
    }
    stats_.iterations = store_.total_levels();
    stats_.seconds = timer.Seconds();
  }

  // Applies the batch to the graph, refines the dependency store, and
  // continues computation to produce the new snapshot's final values.
  // Stats lifecycle (identical across engines, see stats.h): mutation timed
  // first, then Clear(), then mutation_seconds assigned.
  AppliedMutations ApplyMutations(const MutationBatch& batch) {
    GB_CHECK(!async_mode_) << "BSP ApplyMutations while in async mode; "
                              "use AsyncApplyMutations or ExitAsyncReconcile first";
    SchedulerCounterScope scheduler(&stats_);
    Timer mutation_timer;
    AppliedMutations applied = graph_->ApplyBatch(batch);
    const double mutation_seconds = mutation_timer.Seconds();

    const size_t mutated = applied.added.size() + applied.deleted.size();
    if (options_.reset_fallback_fraction > 0.0 &&
        static_cast<double>(mutated) >
            options_.reset_fallback_fraction * static_cast<double>(graph_->num_edges())) {
      InitialCompute();  // rebuilds values and the dependency store
      stats_.mutation_seconds = mutation_seconds;
      return applied;
    }

    Timer timer;
    stats_.Clear();
    stats_.mutation_seconds = mutation_seconds;
    if (!applied.Empty()) {
      Refine(applied);
    }
    stats_.seconds = timer.Seconds();
    return applied;
  }

  // Buffers mutations that arrive while a refinement is in flight (§4.1:
  // "Mutations arriving during refinement are buffered to prioritize
  // latency of the ongoing refinement step, and are applied immediately
  // after refining finishes"). Call ProcessPending() at the next quiescent
  // point to apply everything buffered so far as one batch.
  void EnqueueMutations(const MutationBatch& batch) {
    pending_.insert(pending_.end(), batch.begin(), batch.end());
  }

  size_t pending_mutation_count() const { return pending_.size(); }

  AppliedMutations ProcessPending() {
    MutationBatch batch;
    batch.swap(pending_);
    return ApplyMutations(batch);
  }

  // Streams the engine's computed state (values + dependency store) so a
  // streaming session can resume in a fresh process — or so a Checkpointer
  // (src/fault/checkpoint.h) can embed it in a checkpoint file. The graph
  // itself is saved separately; LoadStateFrom must be called on an engine
  // whose graph already holds the same snapshot (contexts are recomputed
  // from it). Mutations buffered via EnqueueMutations are not part of the
  // persisted state. Returns false on IO failure or mismatched state.
  bool SaveStateTo(std::ostream& out) const {
    static_assert(std::is_trivially_copyable_v<Value>);
    const uint64_t magic = kStateMagic;
    const uint64_t n = values_.size();
    out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
    out.write(reinterpret_cast<const char*>(&n), sizeof(n));
    out.write(reinterpret_cast<const char*>(values_.data()),
              static_cast<std::streamsize>(n * sizeof(Value)));
    store_.SerializeTo(out);
    return static_cast<bool>(out);
  }

  bool LoadStateFrom(std::istream& in) {
    uint64_t magic = 0;
    uint64_t n = 0;
    in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
    in.read(reinterpret_cast<char*>(&n), sizeof(n));
    if (!in || magic != kStateMagic) {
      GB_LOG(kError) << "not a graphbolt engine state";
      return false;
    }
    if (n != graph_->num_vertices()) {
      GB_LOG(kError) << "state has " << n << " vertices but the graph has "
                     << graph_->num_vertices();
      return false;
    }
    values_.resize(n);
    in.read(reinterpret_cast<char*>(values_.data()),
            static_cast<std::streamsize>(n * sizeof(Value)));
    if (!in || !store_.DeserializeFrom(in)) {
      GB_LOG(kError) << "engine state truncated or malformed";
      return false;
    }
    ResetContexts();
    return true;
  }

  // Path-based convenience wrappers over the stream API.
  bool SaveState(const std::string& path) const {
    std::ofstream out(path, std::ios::binary);
    if (!out) {
      GB_LOG(kError) << "cannot open " << path << " for writing";
      return false;
    }
    return SaveStateTo(out);
  }

  bool LoadState(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      GB_LOG(kError) << "cannot open " << path;
      return false;
    }
    return LoadStateFrom(in);
  }

  const std::vector<Value>& values() const { return values_; }
  const EngineStats& stats() const { return stats_; }
  const StoreT& store() const { return store_; }
  const Algo& algorithm() const { return algo_; }

  // The graph this engine computes over; StreamDriver uses it to run
  // background-compaction maintenance between batches.
  MutableGraph* mutable_graph() { return graph_; }

  // ----- Single-update fast path (src/driver/fast_path.h) -------------------
  // Classifies one mutation against the dependency store. Safe means the
  // batched ApplyMutations path would provably leave values_ and the store
  // bitwise unchanged — the mutation's whole effect is the graph splice —
  // so WAL replay through the batched path during Recover() reconstructs
  // exactly the live state.
  //
  // Rules:
  //  - Graph no-ops (duplicate add, absent delete, self-loop) are safe for
  //    every algorithm: ApplyMutations on an empty normalized effect skips
  //    Refine entirely.
  //  - Real mutations are provable only for monotonic pull-based
  //    context-free algorithms (SSSP/BFS/CC/widest/reach). An addition is
  //    safe when its candidate contribution cannot improve the target's
  //    aggregation at any tracked level of the dependency store (min/max
  //    absorbs it without moving a bit); a deletion is safe when its
  //    contribution is strictly dominated at every level (removing a
  //    non-attaining input leaves each re-evaluated min unchanged).
  //  - Decomposable algorithms (PageRank): a real edge change shifts the
  //    endpoint's degree context, which moves its contribution along every
  //    incident edge, so only graph no-ops are safe.
  FastPathVerdict ClassifyFast(const EdgeMutation& m) const {
    const VertexId n = graph_->num_vertices();
    if (m.src >= n || m.dst >= n) {
      return {false, "grows-vertex-set"};
    }
    if (values_.size() != n) {
      return {false, "not-computed"};
    }
    const MutableGraph::SingleEffect eff = graph_->NormalizeSingle(m);
    if (eff.Empty()) {
      return {true, "graph-noop"};
    }
    if constexpr (!kPullBased) {
      return {false, "context-shift-moves-contributions"};
    } else if constexpr (!IsMonotonicAggregation<Algo>() || !IsContextFreeAlgorithm<Algo>()) {
      return {false, "algorithm-not-provable"};
    } else {
      if (options_.reset_fallback_fraction > 0.0) {
        return {false, "reset-fallback-configured"};
      }
      const uint32_t tracked = store_.tracked_levels();
      if (tracked == 0 || tracked != store_.total_levels()) {
        // Pruned history would hand the replay to the hybrid continuation,
        // whose intermediate aggregations are not stored and so not provable.
        return {false, "pruned-history"};
      }
      if (options_.run_to_convergence && store_.ChangedAt(tracked).Count() > 0) {
        return {false, "still-converging"};
      }
      // The refined replay rewrites the endpoints' final values from the
      // last tracked level; require that rewrite to be a bitwise no-op.
      auto final_consistent = [&](VertexId v) {
        return SameBits(values_[v],
                        algo_.VertexCompute(v, store_.At(tracked, v), contexts_[v]));
      };
      // c_{level-1}(src) as the refined run sees it entering `level`.
      auto value_entering = [&](uint32_t level, VertexId u) {
        return level == 1 ? algo_.InitialValue(u, contexts_[u])
                          : algo_.VertexCompute(u, store_.At(level - 1, u), contexts_[u]);
      };
      if (eff.has_add) {
        const Edge& e = eff.added;
        if (!final_consistent(e.src) || !final_consistent(e.dst)) {
          return {false, "stale-final-value"};
        }
        for (uint32_t level = 1; level <= tracked; ++level) {
          const auto cand =
              algo_.ContributionOf(e.src, value_entering(level, e.src), e.weight,
                                   contexts_[e.src]);
          const Aggregate& cur = store_.At(level, e.dst);
          Aggregate probe = cur;
          algo_.AggregateAtomic(&probe, cand);
          if (!SameBits(probe, cur)) {
            return {false, "relaxes-tracked-level"};
          }
        }
      }
      if (eff.has_delete) {
        const Edge& e = eff.deleted;
        if constexpr (!std::is_same_v<typename Algo::Contribution, Aggregate>) {
          return {false, "deletion-not-provable"};
        } else {
          if (!final_consistent(e.src) || !final_consistent(e.dst)) {
            return {false, "stale-final-value"};
          }
          for (uint32_t level = 1; level <= tracked; ++level) {
            const Aggregate cand =
                algo_.ContributionOf(e.src, value_entering(level, e.src), e.weight,
                                     contexts_[e.src]);
            const Aggregate& cur = store_.At(level, e.dst);
            Aggregate probe = cur;
            algo_.AggregateAtomic(&probe, cand);
            // Dominating (shouldn't happen for a present edge) or attaining
            // the aggregate: the edge is load-bearing, escalate.
            if (!SameBits(probe, cur) || SameBits(cand, cur)) {
              return {false, "attains-aggregate"};
            }
          }
        }
      }
      return {true, eff.has_delete ? "dominated-contribution" : "cannot-relax"};
    }
  }

  // Applies a mutation previously classified safe as a bare graph splice.
  // Re-validates first (the caller serializes this against batched applies,
  // but classification may have run before an intervening batch); returns
  // false to send the mutation down the batched path instead. Leaves
  // contexts_ untouched, which is value-preserving for the context-free
  // algorithms real mutations are classified safe under: a real splice
  // only queues its endpoints, whose contexts the next batched apply
  // recomputes along with its own (O(1) here, off the fast path's cost).
  // Past |V| queued endpoints a full pass settles the queue, so splices
  // alone cannot grow it without bound.
  bool ApplyFastSafe(const EdgeMutation& m) {
    if (!ClassifyFast(m).safe) {
      return false;
    }
    if (!graph_->ApplySingle(m).Empty()) {
      spliced_endpoints_.push_back(m.src);
      spliced_endpoints_.push_back(m.dst);
      if (spliced_endpoints_.size() > graph_->num_vertices()) {
        ResetContexts();
      }
    }
    return true;
  }

  // ----- Async delta-accumulative mode (Maiter tier) ------------------------
  // For decomposable aggregations only: barrier-free accumulative iteration
  // in the style of Maiter / libgrape-lite's async delta PageRank. The
  // invariant throughout is
  //
  //   aggregates_[v] == ⊎_{(u,v) ∈ E} contrib(prop_values_[u])
  //
  // where prop_values_[u] is the value u last propagated along its
  // out-edges. A step picks active vertices (aggregate moved since their
  // last propagation) in residual-priority order, pushes each one's delta
  // to its out-neighbors through the same DeltaKernel the BSP refinement
  // uses, and publishes the new value. The mode converges to the *true*
  // algorithm fixed point — when BSP ran with a truncated iteration cap,
  // async values legitimately drift from the k-step front toward the fixed
  // point; that is the eventually-consistent contract.
  //
  // While async_mode() is true the dependency store is stale: BSP
  // ApplyMutations is rejected, and callers must not checkpoint engine
  // state. ExitAsyncReconcile() restores the BSP contract with one
  // reconciling recompute whose result is bitwise-identical (single thread)
  // to a fresh InitialCompute on the current graph.
  static constexpr bool kAsyncEligible = Algo::kKind == AggregationKind::kDecomposable;

  bool async_mode() const { return async_mode_; }

  // Monotone-ish convergence residual: total pending |value change| over
  // vertices whose aggregate moved since their last propagation. Zero means
  // the async values are the fixed point of the current graph.
  double AsyncResidual() const { return async_residual_; }

  // Switches to async mode from the current BSP values: rebuilds the live
  // aggregation array from scratch and activates every vertex that is off
  // its fixed point (a truncated BSP run leaves a nonzero residual).
  void EnterAsyncMode()
    requires(kAsyncEligible)
  {
    if (async_mode_) {
      return;
    }
    const VertexId n = graph_->num_vertices();
    RefreshContexts();
    prop_values_ = values_;
    aggregates_.assign(n, algo_.IdentityAggregate());
    async_active_.Resize(n);
    ParallelForChunks(0, n, [&](size_t lo, size_t hi) {
      uint64_t scratch_edges = 0;
      for (size_t vi = lo; vi < hi; ++vi) {
        const VertexId v = static_cast<VertexId>(vi);
        aggregates_[v] = DeltaKernel<Algo>::PullAggregate(algo_, *graph_, contexts_, v,
                                                          prop_values_, &scratch_edges);
      }
    }, /*grain=*/64);
    async_mode_ = true;
    async_residual_ = ComputeAsyncResidual();
  }

  // Applies a mutation batch while in async mode: splices the graph, then
  // patches the live aggregation array in place — direct edge impact at old
  // contexts, then a context-shift pass over every endpoint whose context
  // changed — so the invariant above holds on the new graph without any
  // barrier. Affected vertices are activated; deltas flow on the next
  // AsyncStep. Stats lifecycle matches ApplyMutations.
  AppliedMutations AsyncApplyMutations(const MutationBatch& batch)
    requires(kAsyncEligible)
  {
    GB_CHECK(async_mode_) << "AsyncApplyMutations outside async mode";
    SchedulerCounterScope scheduler(&stats_);
    Timer mutation_timer;
    AppliedMutations applied = graph_->ApplyBatch(batch);
    const double mutation_seconds = mutation_timer.Seconds();
    Timer timer;
    stats_.Clear();
    stats_.mutation_seconds = mutation_seconds;
    if (applied.Empty()) {
      stats_.seconds = timer.Seconds();
      return applied;
    }

    const VertexId n = graph_->num_vertices();
    const VertexId old_n = static_cast<VertexId>(prop_values_.size());
    const std::vector<VertexContext>& old_contexts = RefreshContextsKeepingOld(applied);
    values_.resize(n, Value{});
    prop_values_.resize(n, Value{});
    aggregates_.resize(n, algo_.IdentityAggregate());
    async_active_.Grow(n);
    for (VertexId v = old_n; v < n; ++v) {
      const Value init = algo_.VertexCompute(v, algo_.IdentityAggregate(), contexts_[v]);
      values_[v] = init;
      prop_values_[v] = init;
      async_active_.Set(v);
    }

    // Endpoints whose context changed: their contribution along every
    // out-edge moves even though their propagated value did not.
    AtomicBitset ctx_changed_bits(n);
    std::vector<VertexId> ctx_changed;
    auto note_endpoint = [&](VertexId v) {
      if (!(old_contexts[v] == contexts_[v]) && ctx_changed_bits.Set(v)) {
        ctx_changed.push_back(v);
      }
    };
    for (const Edge& e : applied.added) {
      note_endpoint(e.src);
      note_endpoint(e.dst);
    }
    for (const Edge& e : applied.deleted) {
      note_endpoint(e.src);
      note_endpoint(e.dst);
    }

    // Direct impact at old contexts: aggregates_ currently hold prop-value
    // contributions at old contexts over the old edge set, so adding /
    // retracting the mutated edges' old-context contributions moves the sum
    // to the new edge set (still at old contexts).
    for (const Edge& e : applied.added) {
      algo_.AggregateAtomic(&aggregates_[e.dst],
                            algo_.ContributionOf(e.src, prop_values_[e.src], e.weight,
                                                 old_contexts[e.src]));
      async_active_.Set(e.dst);
    }
    for (const Edge& e : applied.deleted) {
      algo_.RetractAtomic(&aggregates_[e.dst],
                          algo_.ContributionOf(e.src, prop_values_[e.src], e.weight,
                                               old_contexts[e.src]));
      async_active_.Set(e.dst);
    }
    stats_.edges_processed += applied.added.size() + applied.deleted.size();

    // Context shift: retract old-context / aggregate new-context along the
    // *current* out-edges of every context-changed endpoint, telescoping the
    // sum to new contexts over the new edge set.
    std::atomic<uint64_t> edges{0};
    ParallelForChunks(0, ctx_changed.size(), [&](size_t lo, size_t hi) {
      uint64_t local_edges = 0;
      for (size_t i = lo; i < hi; ++i) {
        const VertexId u = ctx_changed[i];
        const auto out_nbrs = graph_->OutNeighbors(u);
        const auto out_wts = graph_->OutWeights(u);
        for (size_t e = 0; e < out_nbrs.size(); ++e) {
          DeltaKernel<Algo>::PushChange(algo_, options_.use_retract_propagate, u,
                                        prop_values_[u], prop_values_[u], out_wts[e],
                                        old_contexts[u], contexts_[u],
                                        &aggregates_[out_nbrs[e]]);
          async_active_.Set(out_nbrs[e]);
        }
        local_edges += out_nbrs.size();
        async_active_.Set(u);
      }
      edges.fetch_add(local_edges, std::memory_order_relaxed);
    }, /*grain=*/16);
    stats_.edges_processed += edges.load();

    async_residual_ = ComputeAsyncResidual();
    stats_.seconds = timer.Seconds();
    return applied;
  }

  // One bounded round of asynchronous delta propagation: selects up to
  // `budget` active vertices with the largest pending residual (budget 0
  // means unbounded), propagates their deltas along out-edges in
  // priority-ordered chunks (TaskArena's priority lane drains high-impact
  // work first), then recomputes the global residual. Returns the residual.
  // Deliberately does not touch stats_ — the driver owns async accounting
  // across steps, and engine stats are merged per-apply.
  double AsyncStep(size_t budget)
    requires(kAsyncEligible)
  {
    GB_CHECK(async_mode_) << "AsyncStep outside async mode";
    const VertexId n = graph_->num_vertices();
    if (budget == 0) {
      budget = n;
    }
    struct Candidate {
      double mag;
      VertexId v;
    };
    std::vector<Candidate> cands;
    {
      std::mutex merge;
      ParallelForChunks(0, n, [&](size_t lo, size_t hi) {
        std::vector<Candidate> local;
        for (size_t vi = lo; vi < hi; ++vi) {
          const VertexId v = static_cast<VertexId>(vi);
          if (!async_active_.Test(v)) {
            continue;
          }
          const Value next = algo_.VertexCompute(v, aggregates_[v], contexts_[v]);
          if (!algo_.ValuesDiffer(prop_values_[v], next)) {
            async_active_.Clear(v);
            continue;
          }
          local.push_back({ResidualMagnitude(prop_values_[v], next), v});
        }
        if (!local.empty()) {
          std::lock_guard<std::mutex> lock(merge);
          cands.insert(cands.end(), local.begin(), local.end());
        }
      }, /*grain=*/512);
    }
    if (cands.empty()) {
      async_residual_ = 0.0;
      return 0.0;
    }
    auto by_mag_desc = [](const Candidate& a, const Candidate& b) { return a.mag > b.mag; };
    if (cands.size() > budget) {
      std::nth_element(cands.begin(), cands.begin() + static_cast<ptrdiff_t>(budget),
                       cands.end(), by_mag_desc);
      cands.resize(budget);
    }
    std::sort(cands.begin(), cands.end(), by_mag_desc);

    constexpr size_t kChunk = 64;
    {
      TaskGroup group;
      for (size_t lo = 0; lo < cands.size(); lo += kChunk) {
        const size_t hi = std::min(cands.size(), lo + kChunk);
        group.RunPriority(cands[lo].mag, [this, &cands, lo, hi] {
          for (size_t i = lo; i < hi; ++i) {
            PropagateOne(cands[i].v);
          }
        });
      }
      group.Wait();
    }
    async_residual_ = ComputeAsyncResidual();
    return async_residual_;
  }

  // Leaves async mode with one reconciling barrier: recomputes values and
  // the dependency store from scratch, so the post-reconcile state is
  // bitwise-identical (single thread) to a fresh InitialCompute on the
  // current graph — the deterministic-recovery contract the BSP mode makes.
  void ExitAsyncReconcile()
    requires(kAsyncEligible)
  {
    if (!async_mode_) {
      return;
    }
    async_mode_ = false;
    async_residual_ = 0.0;
    prop_values_.clear();
    prop_values_.shrink_to_fit();
    async_active_.Resize(0);
    InitialCompute();
  }

 private:
  using Contribution = typename Algo::Contribution;

  static constexpr bool kPullBased = Algo::kKind == AggregationKind::kNonDecomposable;
  // Weight-free algorithms evaluate each frontier source's change once per
  // level, not once per edge (IsWeightFreeAlgorithm); pull-based ones
  // re-evaluate whole in-neighbourhoods instead and never stage.
  static constexpr bool kStaged = DeltaKernel<Algo>::kWeightFree && !kPullBased;
  static constexpr uint64_t kStateMagic = 0x47424f4c54535431ULL;  // "GBOLTST1"

  // Bitwise equality — the fast path's safety contract is stated in bits,
  // not tolerances, so recovery replay stays exact.
  template <typename T>
  static bool SameBits(const T& a, const T& b) {
    static_assert(std::is_trivially_copyable_v<T>);
    return std::memcmp(&a, &b, sizeof(T)) == 0;
  }

  struct FrontierEntry {
    VertexId v;
    Value old_value;  // value in the pre-mutation run
    Value new_value;  // value in the refined run
  };

  // Epoch-stamped per-level scratch recording the old and new values of
  // every vertex touched while refining one level, and which of them the
  // level hands on as changed contributors (`frontier`). Two instances
  // alternate between consecutive levels, giving O(1) old/new value lookups
  // without hashing; a dense level's sweep reads its sources from them.
  struct LevelScratch {
    std::vector<Value> old_values;
    std::vector<Value> new_values;
    std::vector<uint32_t> stamps;
    AtomicBitset frontier;
    uint32_t epoch = 0;

    void Prepare(VertexId n) {
      if (stamps.size() < n) {
        stamps.resize(n, 0);
        old_values.resize(n);
        new_values.resize(n);
      }
      if (++epoch == 0) {  // wrapped: forget every stale stamp
        std::fill(stamps.begin(), stamps.end(), 0);
        epoch = 1;
      }
      if (frontier.size() != n) {
        frontier.Resize(n);
      } else {
        frontier.ClearAll();
      }
    }
    bool Has(VertexId v) const { return stamps[v] == epoch; }
    void Record(VertexId v, const Value& old_value, const Value& new_value) {
      stamps[v] = epoch;
      old_values[v] = old_value;
      new_values[v] = new_value;
    }
  };

  // ----- Initial (tracked) computation -------------------------------------

  // Iteration 1: full pull pass over every vertex. Returns the changed set
  // carrying pre-change values, and snapshots level 1.
  std::vector<std::pair<VertexId, Value>> FirstIteration() {
    const VertexId n = graph_->num_vertices();
    std::atomic<uint64_t> edges{0};
    ParallelForChunks(0, n, [&](size_t lo, size_t hi) {
      uint64_t local_edges = 0;
      for (size_t vi = lo; vi < hi; ++vi) {
        aggregates_[vi] = PullAggregate(static_cast<VertexId>(vi), values_, &local_edges);
      }
      edges.fetch_add(local_edges, std::memory_order_relaxed);
    });
    stats_.edges_processed += edges.load();
    return CommitIteration(VertexSubset::All(n));
  }

  // Iterations >= 2: selective delta processing (push) or selective pull
  // re-evaluation for non-decomposable aggregations. Snapshots the level.
  std::vector<std::pair<VertexId, Value>> TrackedIteration(
      const std::vector<std::pair<VertexId, Value>>& frontier) {
    const VertexId n = graph_->num_vertices();
    FrontierBuilder touched(n);
    std::atomic<uint64_t> edges{0};

    if constexpr (kPullBased) {
      ParallelForChunks(0, frontier.size(), [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          for (const VertexId w : graph_->OutNeighbors(frontier[i].first)) {
            touched.Claim(w);
          }
        }
      }, /*grain=*/64);
      // TakeAuto: a dense target set comes back as its bitset alone and is
      // swept below (and in CommitIteration) without ever packing the
      // sparse member vector. Both walks ascend, so the single-threaded
      // visit order — and the committed values — are identical either way.
      VertexSubset targets = touched.TakeAuto();
      if (targets.dense_only()) {
        const AtomicBitset& bits = targets.Dense();
        ParallelForChunks(0, n, [&](size_t lo, size_t hi) {
          uint64_t local_edges = 0;
          for (size_t vi = lo; vi < hi; ++vi) {
            const VertexId v = static_cast<VertexId>(vi);
            if (bits.Test(v)) {
              aggregates_[v] = PullAggregate(v, values_, &local_edges);
            }
          }
          edges.fetch_add(local_edges, std::memory_order_relaxed);
        }, /*grain=*/512);
      } else {
        ParallelForChunks(0, targets.size(), [&](size_t lo, size_t hi) {
          uint64_t local_edges = 0;
          for (size_t i = lo; i < hi; ++i) {
            const VertexId v = targets.members()[i];
            aggregates_[v] = PullAggregate(v, values_, &local_edges);
          }
          edges.fetch_add(local_edges, std::memory_order_relaxed);
        }, /*grain=*/64);
      }
      stats_.edges_processed += edges.load();
      return CommitIteration(targets);
    } else {
      if (PullPays(frontier, [](const auto& entry) { return entry.first; })) {
        return TrackedIterationPull(frontier);
      }
      ParallelForChunks(0, frontier.size(), [&](size_t lo, size_t hi) {
        uint64_t local_edges = 0;
        for (size_t i = lo; i < hi; ++i) {
          const auto& [u, old_value] = frontier[i];
          const auto out_nbrs = graph_->OutNeighbors(u);
          const auto out_wts = graph_->OutWeights(u);
          if constexpr (kStaged) {
            Contribution change[DeltaKernel<Algo>::kMaxStagedWidth]{};
            StageChange(u, old_value, values_[u], contexts_[u], change);
            for (const VertexId w : out_nbrs) {
              PushStaged(change, &aggregates_[w]);
              touched.Claim(w);
            }
          } else {
            for (size_t e = 0; e < out_nbrs.size(); ++e) {
              const VertexId w = out_nbrs[e];
              PushChange(u, old_value, values_[u], out_wts[e], contexts_[u], contexts_[u],
                         &aggregates_[w]);
              touched.Claim(w);
            }
          }
          local_edges += out_nbrs.size();
        }
        edges.fetch_add(local_edges, std::memory_order_relaxed);
      }, /*grain=*/64);
      stats_.edges_processed += edges.load();
      return CommitIteration(touched.TakeAuto());
    }
  }

  // Dense direction of TrackedIteration: every vertex pulls the changes of
  // its frontier in-neighbours into its own aggregation cell, in in-edge
  // order, and commits its value in the same visit. The sources' old and
  // new values (or, for weight-free algorithms, their staged changes) are
  // recorded first, so the in-place commit of values_ never races with a
  // read of them.
  std::vector<std::pair<VertexId, Value>> TrackedIterationPull(
      const std::vector<std::pair<VertexId, Value>>& frontier) {
    const VertexId n = graph_->num_vertices();
    LevelScratch& sources = value_scratch_[0];
    sources.Prepare(n);
    PrepareStaged(n);
    ParallelFor(0, frontier.size(), [&](size_t i) {
      const auto& [u, old_value] = frontier[i];
      if constexpr (kStaged) {
        StageChange(u, old_value, values_[u], contexts_[u], StagedSlot(u));
      } else {
        sources.Record(u, old_value, values_[u]);
      }
      sources.frontier.Set(u);
    }, /*grain=*/256);

    AtomicBitset changed_bits(n);
    std::vector<std::pair<VertexId, Value>> changed;
    std::mutex merge;
    std::atomic<uint64_t> edges{0};
    ParallelForChunks(0, n, [&](size_t lo, size_t hi) {
      std::vector<std::pair<VertexId, Value>> local;
      uint64_t local_edges = 0;
      for (size_t vi = lo; vi < hi; ++vi) {
        const VertexId v = static_cast<VertexId>(vi);
        if (PullChanges(v, sources, contexts_, &aggregates_[v], &local_edges)) {
          CommitValue(v, &changed_bits, &local);
        }
      }
      edges.fetch_add(local_edges, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(merge);
      changed.insert(changed.end(), local.begin(), local.end());
    }, /*grain=*/512);
    stats_.edges_processed += edges.load();
    store_.SnapshotLevel(store_.total_levels() + 1, aggregates_, std::move(changed_bits));
    return changed;
  }

  // Recomputes v's value from its aggregation; when it moved, marks v
  // changed and records its pre-change value in `changed`.
  void CommitValue(VertexId v, AtomicBitset* changed_bits,
                   std::vector<std::pair<VertexId, Value>>* changed) {
    const Value next = algo_.VertexCompute(v, aggregates_[v], contexts_[v]);
    if (algo_.ValuesDiffer(values_[v], next)) {
      changed_bits->Set(v);
      changed->emplace_back(v, values_[v]);
      values_[v] = next;
    }
  }

  // Computes new values for `targets`, snapshots the level (aggregates +
  // changed bits), and returns the changed set.
  std::vector<std::pair<VertexId, Value>> CommitIteration(const VertexSubset& targets) {
    const VertexId n = graph_->num_vertices();
    AtomicBitset changed_bits(n);
    std::vector<std::pair<VertexId, Value>> changed;
    std::mutex merge;
    if (targets.dense_only()) {
      // Fused-dense targets (TakeAuto): sweep the bitset instead of
      // forcing the sparse pack. Ascending like the member walk, so a
      // single-threaded commit is bitwise-identical.
      const AtomicBitset& bits = targets.Dense();
      ParallelForChunks(0, n, [&](size_t lo, size_t hi) {
        std::vector<std::pair<VertexId, Value>> local;
        for (size_t vi = lo; vi < hi; ++vi) {
          const VertexId v = static_cast<VertexId>(vi);
          if (bits.Test(v)) {
            CommitValue(v, &changed_bits, &local);
          }
        }
        std::lock_guard<std::mutex> lock(merge);
        changed.insert(changed.end(), local.begin(), local.end());
      }, /*grain=*/512);
    } else {
      ParallelForChunks(0, targets.size(), [&](size_t lo, size_t hi) {
        std::vector<std::pair<VertexId, Value>> local;
        for (size_t i = lo; i < hi; ++i) {
          CommitValue(targets.members()[i], &changed_bits, &local);
        }
        std::lock_guard<std::mutex> lock(merge);
        changed.insert(changed.end(), local.begin(), local.end());
      }, /*grain=*/256);
    }
    store_.SnapshotLevel(store_.total_levels() + 1, aggregates_, std::move(changed_bits));
    return changed;
  }

  // ----- Refinement ---------------------------------------------------------

  // Applies one change (retract old / aggregate new, or a combined delta) to
  // a target aggregation cell other tasks may hit too. Shared with the async
  // mode via DeltaKernel.
  void PushChange(VertexId u, const Value& old_value, const Value& new_value, Weight w,
                  const VertexContext& old_ctx, const VertexContext& new_ctx, Aggregate* agg) {
    DeltaKernel<Algo>::PushChange(algo_, options_.use_retract_propagate, u, old_value,
                                  new_value, w, old_ctx, new_ctx, agg);
  }

  // Weight-free algorithms stage a source's change once and add it on each
  // out-edge (DeltaKernel::StageChange). `old_ctx` is the source's context
  // before the change; its current one is contexts_[u].
  void StageChange(VertexId u, const Value& old_value, const Value& new_value,
                   const VertexContext& old_ctx, Contribution* staged) const {
    DeltaKernel<Algo>::StageChange(algo_, options_.use_retract_propagate, u, old_value,
                                   new_value, old_ctx, contexts_[u], staged);
  }

  template <bool kOwned = false>
  void PushStaged(const Contribution* staged, Aggregate* agg) const {
    DeltaKernel<Algo>::template PushStaged<kOwned>(algo_, options_.use_retract_propagate, staged,
                                                   agg);
  }

  // staged_ holds one staged change per vertex for the dense sweeps; only
  // the current level's frontier sources' slots are live. Sources are
  // unique per level, so a parallel fill writes distinct slots.
  void PrepareStaged(VertexId n) {
    if constexpr (kStaged) {
      staged_.resize(size_t{n} * StagedWidth());
    }
  }
  size_t StagedWidth() const {
    return DeltaKernel<Algo>::StagedWidth(options_.use_retract_propagate);
  }
  Contribution* StagedSlot(VertexId u) { return &staged_[size_t{u} * StagedWidth()]; }
  const Contribution* StagedSlot(VertexId u) const {
    return &staged_[size_t{u} * StagedWidth()];
  }

  // Re-evaluates g(v) by pulling the full in-neighborhood with `vals`.
  Aggregate PullAggregate(VertexId v, const std::vector<Value>& vals, uint64_t* edge_counter) {
    return DeltaKernel<Algo>::PullAggregate(algo_, *graph_, contexts_, v, vals, edge_counter);
  }

  // Ligra's direction rule (PreferPull) over a frontier list: pull when the
  // frontier's out-edges exceed |E|/20.
  template <typename Entry, typename IdOf>
  bool PullPays(const std::vector<Entry>& frontier, IdOf id_of) const {
    const uint64_t frontier_edges = ParallelReduceSum<uint64_t>(0, frontier.size(), [&](size_t i) {
      return static_cast<uint64_t>(graph_->OutDegree(id_of(frontier[i])));
    });
    return PreferPull(frontier_edges, graph_->num_edges());
  }

  // The pull form of the push loops: folds the change of every in-neighbour
  // of v marked in `sources.frontier` (old → new value, old → new context)
  // into v's cell, in in-edge order. The caller is the cell's only writer.
  // Weight-free algorithms read each source's change from staged_ (one
  // load and one add per frontier in-edge); the others evaluate it per
  // edge from `sources` and `old_contexts`. Counts one processed edge per
  // change applied, like the push it replaces, and returns whether v had
  // any frontier in-neighbour.
  bool PullChanges(VertexId v, const LevelScratch& sources,
                   const std::vector<VertexContext>& old_contexts, Aggregate* agg,
                   uint64_t* edge_counter) const {
    const auto in_nbrs = graph_->InNeighbors(v);
    uint64_t pulled = 0;
    if constexpr (kStaged) {
      for (const VertexId u : in_nbrs) {
        if (sources.frontier.Test(u)) {
          PushStaged</*kOwned=*/true>(StagedSlot(u), agg);
          ++pulled;
        }
      }
    } else {
      const auto in_wts = graph_->InWeights(v);
      for (size_t e = 0; e < in_nbrs.size(); ++e) {
        const VertexId u = in_nbrs[e];
        if (!sources.frontier.Test(u)) {
          continue;
        }
        DeltaKernel<Algo>::template PushChange</*kOwned=*/true>(
            algo_, options_.use_retract_propagate, u, sources.old_values[u],
            sources.new_values[u], in_wts[e], old_contexts[u], contexts_[u], agg);
        ++pulled;
      }
    }
    *edge_counter += pulled;
    return pulled > 0;
  }

  // c_{level}(v) in the *pre-mutation* run. `prev` holds snapshotted old
  // values of vertices refined at `level`; untouched vertices still hold
  // their old aggregation in the store.
  Value OldValueAt(uint32_t level, VertexId v, const std::vector<VertexContext>& old_contexts,
                   const LevelScratch& prev) const {
    if (level == 0) {
      return algo_.InitialValue(v, old_contexts[v]);
    }
    if (prev.Has(v)) {
      return prev.old_values[v];
    }
    return algo_.VertexCompute(v, store_.At(level, v), old_contexts[v]);
  }

  // c^T_{level}(v) in the refined run; valid once level has been refined.
  Value NewValueAt(uint32_t level, VertexId v) const {
    if (level == 0) {
      return algo_.InitialValue(v, contexts_[v]);
    }
    return algo_.VertexCompute(v, store_.At(level, v), contexts_[v]);
  }

  // Fast path reading the scratch of `level` when v was touched there.
  Value NewValueAt(uint32_t level, VertexId v, const LevelScratch& scratch) const {
    if (level >= 1 && scratch.Has(v)) {
      return scratch.new_values[v];
    }
    return NewValueAt(level, v);
  }

  // contexts_ equals ComputeVertexContexts(*graph_) except at the vertices
  // queued in spliced_endpoints_. Only these two helpers write contexts_.
  //
  // Recomputes every context in one pass and drops the queue, which the
  // pass covers. For (re)starts, where the graph may have been replaced
  // wholesale — a restored snapshot can be smaller than the graph the
  // queue was filled on.
  void ResetContexts() {
    contexts_ = ComputeVertexContexts(*graph_);
    spliced_endpoints_.clear();
  }

  // Drains the queue: brings contexts_ up to date at the endpoints of
  // fast-path splices since the last refresh, at the endpoints of
  // `applied`, and at new vertices.
  void RefreshContexts(const AppliedMutations& applied = {}) {
    std::vector<VertexId> touched = std::move(spliced_endpoints_);
    spliced_endpoints_.clear();
    for (const std::vector<Edge>* edges : {&applied.added, &applied.deleted}) {
      for (const Edge& e : *edges) {
        touched.push_back(e.src);
        touched.push_back(e.dst);
      }
    }
    UpdateVertexContexts(*graph_, std::move(touched), &contexts_);
  }

  // RefreshContexts(applied), keeping the pre-batch contexts in
  // old_contexts_ (grown to the new vertex count with empty contexts).
  // Returns old_contexts_.
  const std::vector<VertexContext>& RefreshContextsKeepingOld(const AppliedMutations& applied) {
    old_contexts_.assign(contexts_.begin(), contexts_.end());
    old_contexts_.resize(graph_->num_vertices());
    RefreshContexts(applied);
    return old_contexts_;
  }

  void Refine(const AppliedMutations& applied) {
    const VertexId n = graph_->num_vertices();
    const VertexId old_n = store_.num_vertices();
    const std::vector<VertexContext>& old_contexts = RefreshContextsKeepingOld(applied);
    store_.GrowVertices(n, algo_.IdentityAggregate());
    values_.resize(n, Value{});
    // New vertices behave as if they had existed isolated all along; the
    // value of an isolated vertex is constant from iteration 1 onward.
    for (VertexId v = old_n; v < n; ++v) {
      values_[v] = algo_.VertexCompute(v, algo_.IdentityAggregate(), contexts_[v]);
    }

    const uint32_t tracked = store_.tracked_levels();
    const uint32_t orig_total = store_.total_levels();

    // Contributors whose context changed: their contribution along every
    // out-edge changes even if their value does not. The mutated edges'
    // targets are the direct targets of every level.
    AtomicBitset ctx_changed_bits(n);
    AtomicBitset direct_targets(n);
    std::vector<VertexId> ctx_changed;
    auto note_edge = [&](const Edge& e) {
      for (const VertexId v : {e.src, e.dst}) {
        if (!(old_contexts[v] == contexts_[v]) && ctx_changed_bits.Set(v)) {
          ctx_changed.push_back(v);
        }
      }
      direct_targets.Set(e.dst);
    };
    for (const Edge& e : applied.added) {
      note_edge(e);
    }
    for (const Edge& e : applied.deleted) {
      note_edge(e);
    }

    // Level-0 frontier: only context-changed vertices can differ. Its
    // scratch stands in for "level 0" and holds just those vertices.
    LevelScratch* scratch = value_scratch_;
    scratch[0].Prepare(n);
    std::vector<FrontierEntry> frontier;
    for (const VertexId v : ctx_changed) {
      frontier.push_back({v, algo_.InitialValue(v, old_contexts[v]),
                          algo_.InitialValue(v, contexts_[v])});
      scratch[0].Record(v, frontier.back().old_value, frontier.back().new_value);
      scratch[0].frontier.Set(v);
    }

    const RefinedBatch batch{applied, direct_targets, ctx_changed, old_contexts};
    for (uint32_t level = 1; level <= tracked; ++level) {
      frontier = RefineLevel(level, batch, frontier, scratch[(level - 1) & 1], &scratch[level & 1]);
      ++stats_.iterations;
    }
    // Give the storage backend a chance to drop suffixes that refinement
    // re-expanded but that ended up stable again (no-op for the dense store).
    store_.RepruneTails(VertexSubset::All(n));

    // Decide whether the computation must continue past the refined levels:
    // untracked original iterations remain, or (in convergence mode) the
    // refined run is still changing at the last refined level.
    const bool more_levels = tracked < orig_total;
    const bool still_changing =
        options_.run_to_convergence && tracked >= 1 && store_.ChangedAt(tracked).Count() > 0;
    if (more_levels || still_changing) {
      ContinueBeyondHistory(tracked, orig_total);
    } else {
      for (const FrontierEntry& entry : frontier) {
        values_[entry.v] = entry.new_value;
      }
    }
  }

  // What every refined level of one batch shares.
  struct RefinedBatch {
    const AppliedMutations& applied;
    const AtomicBitset& direct_targets;  // heads of the mutated edges
    const std::vector<VertexId>& ctx_changed;
    const std::vector<VertexContext>& old_contexts;
  };

  // Monotonic aggregations with addition-only batches: values only improve,
  // and the aggregation absorbs improved inputs without retraction, so the
  // improved contributions are pushed directly (§5.4B).
  bool MonotonicPushOnly(const AppliedMutations& applied) const {
    return IsMonotonicAggregation<Algo>() && applied.deleted.empty() &&
           !options_.disable_monotonic_push;
  }

  // Refines one tracked level; returns the next frontier (changed values and
  // context-changed contributors). `prev` is the scratch filled while
  // refining level-1; `cur` receives this level's touched old/new values and
  // its frontier bits. The direction follows Ligra's rule: a dense frontier
  // is pulled in one sweep over all vertices, a sparse one pushed.
  std::vector<FrontierEntry> RefineLevel(uint32_t level, const RefinedBatch& batch,
                                         const std::vector<FrontierEntry>& frontier,
                                         const LevelScratch& prev, LevelScratch* cur) {
    cur->Prepare(graph_->num_vertices());
    AtomicBitset& changed_bits = store_.MutableChangedAt(level);
    std::vector<FrontierEntry> next =
        PullPays(frontier, [](const FrontierEntry& entry) { return entry.v; })
            ? RefineLevelPull(level, batch, frontier, prev, cur, &changed_bits)
            : RefineLevelPush(level, batch, frontier, prev, cur, &changed_bits);

    // Context-changed contributors stay in the frontier at every level even
    // when their value is unchanged.
    for (const VertexId v : batch.ctx_changed) {
      if (cur->frontier.Test(v)) {
        continue;
      }
      if (!cur->Has(v)) {
        // Not a target: its aggregation is the stored one.
        const Aggregate& untouched = store_.At(level, v);
        cur->Record(v, algo_.VertexCompute(v, untouched, batch.old_contexts[v]),
                    algo_.VertexCompute(v, untouched, contexts_[v]));
      }
      cur->frontier.Set(v);
      next.push_back({v, cur->old_values[v], cur->new_values[v]});
    }
    return next;
  }

  // Applies the batch's direct impact to the materialized level `agg`:
  // ⊎ new edges' old contributions, ⋃- deleted ones (decomposable), or the
  // added edges' improved contributions (monotonic push-only). Runs on the
  // calling thread, the only writer of `agg` at this point.
  void ApplyDirectImpact(uint32_t level, const RefinedBatch& batch, const LevelScratch& prev,
                         std::vector<Aggregate>* agg) {
    const AppliedMutations& applied = batch.applied;
    if constexpr (kPullBased) {
      for (const Edge& e : applied.added) {
        algo_.AggregateOwned(&(*agg)[e.dst],
                             algo_.ContributionOf(e.src, NewValueAt(level - 1, e.src, prev),
                                                  e.weight, contexts_[e.src]));
      }
      stats_.edges_processed += applied.added.size();
    } else {
      for (const Edge& e : applied.added) {
        const Value old_src = OldValueAt(level - 1, e.src, batch.old_contexts, prev);
        algo_.AggregateOwned(&(*agg)[e.dst], algo_.ContributionOf(e.src, old_src, e.weight,
                                                                  batch.old_contexts[e.src]));
      }
      for (const Edge& e : applied.deleted) {
        const Value old_src = OldValueAt(level - 1, e.src, batch.old_contexts, prev);
        algo_.RetractOwned(&(*agg)[e.dst], algo_.ContributionOf(e.src, old_src, e.weight,
                                                                batch.old_contexts[e.src]));
      }
      stats_.edges_processed += applied.added.size() + applied.deleted.size();
    }
  }

  // Non-decomposable re-evaluation (3a): g(v) from the full new
  // in-neighbourhood under the refined level-1 values.
  Aggregate Reevaluate(uint32_t level, VertexId v, const LevelScratch& prev,
                       uint64_t* edge_counter) const {
    Aggregate fresh = algo_.IdentityAggregate();
    const auto in_nbrs = graph_->InNeighbors(v);
    const auto in_wts = graph_->InWeights(v);
    for (size_t e = 0; e < in_nbrs.size(); ++e) {
      const VertexId u = in_nbrs[e];
      algo_.AggregateOwned(
          &fresh, algo_.ContributionOf(u, NewValueAt(level - 1, u, prev), in_wts[e], contexts_[u]));
    }
    *edge_counter += in_nbrs.size();
    return fresh;
  }

  // Settles target v once its refined aggregation `agg` is final: records
  // its old value (from the stored, not yet committed, g_level(v)) and its
  // new value, refreshes its changed bit against its refined value at
  // level-1, and hands it to the next level when its value moved.
  void SettleTarget(uint32_t level, VertexId v, const Aggregate& agg, const RefinedBatch& batch,
                    const LevelScratch& prev, LevelScratch* cur, AtomicBitset* changed_bits,
                    std::vector<FrontierEntry>* next) const {
    const Value old_value = algo_.VertexCompute(v, store_.At(level, v), batch.old_contexts[v]);
    const Value new_value = algo_.VertexCompute(v, agg, contexts_[v]);
    cur->Record(v, old_value, new_value);
    RefreshChangedBit(changed_bits, v, NewValueAt(level - 1, v, prev), new_value);
    if (algo_.ValuesDiffer(old_value, new_value)) {
      cur->frontier.Set(v);
      next->push_back({v, old_value, new_value});
    }
  }

  // The changed bit of v at a level compares its refined value there with
  // its refined value one level earlier.
  void RefreshChangedBit(AtomicBitset* changed_bits, VertexId v, const Value& before,
                         const Value& here) const {
    if (algo_.ValuesDiffer(before, here)) {
      changed_bits->Set(v);
    } else {
      changed_bits->Clear(v);
    }
  }

  // Sparse direction: claims the targets (direct mutation targets plus
  // out-neighbours of the frontier), materializes just those cells, pushes
  // the frontier's changes into them with atomics, then settles them.
  std::vector<FrontierEntry> RefineLevelPush(uint32_t level, const RefinedBatch& batch,
                                             const std::vector<FrontierEntry>& frontier,
                                             const LevelScratch& prev, LevelScratch* cur,
                                             AtomicBitset* changed_bits) {
    const AppliedMutations& applied = batch.applied;
    FrontierBuilder touched(graph_->num_vertices());
    for (const Edge& e : applied.added) {
      touched.Claim(e.dst);
    }
    for (const Edge& e : applied.deleted) {
      touched.Claim(e.dst);
    }
    ParallelForChunks(0, frontier.size(), [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        for (const VertexId w : graph_->OutNeighbors(frontier[i].v)) {
          touched.Claim(w);
        }
      }
    }, /*grain=*/64);
    VertexSubset targets = touched.Take();

    // Every write below lands on a target, so committing the targets back
    // is a complete update of the level.
    store_.MaterializeLevel(level, targets, &level_scratch_);
    std::vector<Aggregate>& agg = level_scratch_;

    std::atomic<uint64_t> edges{0};
    if (kPullBased && !MonotonicPushOnly(applied)) {
      ParallelForChunks(0, targets.size(), [&](size_t lo, size_t hi) {
        uint64_t local_edges = 0;
        for (size_t i = lo; i < hi; ++i) {
          const VertexId v = targets.members()[i];
          agg[v] = Reevaluate(level, v, prev, &local_edges);
        }
        edges.fetch_add(local_edges, std::memory_order_relaxed);
      }, /*grain=*/64);
    } else {
      ApplyDirectImpact(level, batch, prev, &agg);
      // Transitive impact: ⋃△ over out-edges (in E^T) of every changed
      // contributor, or its improved contribution (monotonic push-only).
      ParallelForChunks(0, frontier.size(), [&](size_t lo, size_t hi) {
        uint64_t local_edges = 0;
        for (size_t i = lo; i < hi; ++i) {
          const FrontierEntry& entry = frontier[i];
          const auto out_nbrs = graph_->OutNeighbors(entry.v);
          const auto out_wts = graph_->OutWeights(entry.v);
          if constexpr (kStaged) {
            Contribution change[DeltaKernel<Algo>::kMaxStagedWidth]{};
            StageChange(entry.v, entry.old_value, entry.new_value, batch.old_contexts[entry.v],
                        change);
            for (const VertexId w : out_nbrs) {
              PushStaged(change, &agg[w]);
            }
          } else {
            for (size_t e = 0; e < out_nbrs.size(); ++e) {
              if constexpr (kPullBased) {
                algo_.AggregateAtomic(&agg[out_nbrs[e]],
                                      algo_.ContributionOf(entry.v, entry.new_value, out_wts[e],
                                                           contexts_[entry.v]));
              } else {
                PushChange(entry.v, entry.old_value, entry.new_value, out_wts[e],
                           batch.old_contexts[entry.v], contexts_[entry.v], &agg[out_nbrs[e]]);
              }
            }
          }
          local_edges += out_nbrs.size();
        }
        edges.fetch_add(local_edges, std::memory_order_relaxed);
      }, /*grain=*/64);
    }
    stats_.edges_processed += edges.load();

    std::vector<FrontierEntry> next;
    std::mutex merge;
    ParallelForChunks(0, targets.size(), [&](size_t lo, size_t hi) {
      std::vector<FrontierEntry> local;
      for (size_t i = lo; i < hi; ++i) {
        const VertexId v = targets.members()[i];
        SettleTarget(level, v, agg[v], batch, prev, cur, changed_bits, &local);
      }
      std::lock_guard<std::mutex> lock(merge);
      next.insert(next.end(), local.begin(), local.end());
    }, /*grain=*/256);

    // A vertex that changed at the previous level but is not a target here
    // keeps its aggregation (and hence its value at this level), yet its
    // changed bit must be refreshed: the bit compares against its *new*
    // previous-level value.
    for (const FrontierEntry& entry : frontier) {
      if (!touched.Contains(entry.v)) {
        RefreshChangedBit(changed_bits, entry.v, entry.new_value,
                          algo_.VertexCompute(entry.v, store_.At(level, entry.v),
                                              contexts_[entry.v]));
      }
    }

    store_.CommitLevel(level, targets, agg);
    return next;
  }

  // Dense direction: the direct impact goes into the whole materialized
  // level first; then one sweep visits every vertex w, pulls the change of
  // each frontier in-neighbour (read from `prev`, or from staged_ once
  // per source for weight-free algorithms) into w's own cell in in-edge
  // order, and settles w in the same visit. No atomics touch an
  // aggregation and the summation order is fixed, so the level is bitwise
  // reproducible at any worker count.
  std::vector<FrontierEntry> RefineLevelPull(uint32_t level, const RefinedBatch& batch,
                                             const std::vector<FrontierEntry>& frontier,
                                             const LevelScratch& prev, LevelScratch* cur,
                                             AtomicBitset* changed_bits) {
    const VertexId n = graph_->num_vertices();
    const bool reevaluate = kPullBased && !MonotonicPushOnly(batch.applied);
    store_.MaterializeLevel(level, &level_scratch_);
    std::vector<Aggregate>& agg = level_scratch_;
    if (!reevaluate) {
      ApplyDirectImpact(level, batch, prev, &agg);
    }
    if constexpr (kStaged) {
      PrepareStaged(n);
      ParallelFor(0, frontier.size(), [&](size_t i) {
        const FrontierEntry& entry = frontier[i];
        StageChange(entry.v, entry.old_value, entry.new_value, batch.old_contexts[entry.v],
                    StagedSlot(entry.v));
      }, /*grain=*/256);
    }

    std::vector<FrontierEntry> next;
    std::mutex merge;
    std::atomic<uint64_t> edges{0};
    ParallelForChunks(0, n, [&](size_t lo, size_t hi) {
      std::vector<FrontierEntry> local;
      uint64_t local_edges = 0;
      for (size_t vi = lo; vi < hi; ++vi) {
        const VertexId w = static_cast<VertexId>(vi);
        bool target = batch.direct_targets.Test(w);
        if constexpr (kPullBased) {
          const auto in_nbrs = graph_->InNeighbors(w);
          const auto in_wts = graph_->InWeights(w);
          for (size_t e = 0; e < in_nbrs.size() && !(target && reevaluate); ++e) {
            const VertexId u = in_nbrs[e];
            if (prev.frontier.Test(u)) {
              target = true;
              if (!reevaluate) {
                algo_.AggregateOwned(&agg[w], algo_.ContributionOf(u, prev.new_values[u],
                                                                   in_wts[e], contexts_[u]));
                ++local_edges;
              }
            }
          }
          if (target && reevaluate) {
            agg[w] = Reevaluate(level, w, prev, &local_edges);
          }
        } else {
          target |= PullChanges(w, prev, batch.old_contexts, &agg[w], &local_edges);
        }
        if (target) {
          SettleTarget(level, w, agg[w], batch, prev, cur, changed_bits, &local);
        } else if (prev.frontier.Test(w)) {
          // A previous-level contributor that is not a target here: see the
          // matching refresh in RefineLevelPush.
          RefreshChangedBit(changed_bits, w, prev.new_values[w],
                            algo_.VertexCompute(w, agg[w], contexts_[w]));
        }
      }
      edges.fetch_add(local_edges, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(merge);
      next.insert(next.end(), local.begin(), local.end());
    }, /*grain=*/512);
    stats_.edges_processed += edges.load();

    store_.CommitLevel(level, agg);
    return next;
  }

  // ----- Hybrid continuation ------------------------------------------------

  // Computation-aware hybrid execution past the refined history: selective
  // pull-recomputation seeded by the changed-bit vectors.
  void ContinueBeyondHistory(uint32_t from_level, uint32_t orig_total) {
    const VertexId n = graph_->num_vertices();

    // Full value array at the entry level.
    std::vector<Value> cur(n);
    ParallelFor(0, n, [&](size_t v) {
      cur[v] = NewValueAt(from_level, static_cast<VertexId>(v));
    }, /*grain=*/512);

    // Frontier: vertices whose refined value changed at the entry level.
    std::vector<VertexId> frontier;
    if (from_level >= 1) {
      const AtomicBitset& bits = store_.ChangedAt(from_level);
      for (VertexId v = 0; v < n; ++v) {
        if (bits.Test(v)) {
          frontier.push_back(v);
        }
      }
    }

    uint32_t level = from_level + 1;
    while (level <= orig_total ||
           (options_.run_to_convergence && !frontier.empty() && level <= options_.max_iterations)) {
      if (!options_.run_to_convergence && level > options_.max_iterations) {
        break;
      }
      FrontierBuilder affected(n);
      ParallelForChunks(0, frontier.size(), [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          for (const VertexId w : graph_->OutNeighbors(frontier[i])) {
            affected.Claim(w);
          }
        }
      }, /*grain=*/64);
      if (level <= orig_total) {
        // Replay the original dynamics: vertices that changed at this level
        // in the pre-mutation run must be recomputed too.
        const AtomicBitset& orig_bits = store_.ChangedAt(level);
        for (VertexId v = 0; v < n; ++v) {
          if (orig_bits.Test(v)) {
            affected.Claim(v);
          }
        }
      }
      VertexSubset targets = affected.Take();

      std::vector<Value> fresh(targets.size());
      std::atomic<uint64_t> edges{0};
      ParallelForChunks(0, targets.size(), [&](size_t lo, size_t hi) {
        uint64_t local_edges = 0;
        for (size_t i = lo; i < hi; ++i) {
          const VertexId v = targets.members()[i];
          const Aggregate agg = PullAggregate(v, cur, &local_edges);
          fresh[i] = algo_.VertexCompute(v, agg, contexts_[v]);
        }
        edges.fetch_add(local_edges, std::memory_order_relaxed);
      }, /*grain=*/64);
      stats_.edges_processed += edges.load();

      // Commit (BSP barrier already passed), update changed bits, and build
      // the next frontier.
      std::vector<VertexId> next;
      if (level <= orig_total) {
        AtomicBitset& bits = store_.MutableChangedAt(level);
        for (size_t i = 0; i < targets.size(); ++i) {
          const VertexId v = targets.members()[i];
          const bool differs = algo_.ValuesDiffer(cur[v], fresh[i]);
          if (differs) {
            bits.Set(v);
            next.push_back(v);
          } else {
            bits.Clear(v);
          }
          cur[v] = fresh[i];
        }
      } else {
        AtomicBitset bits(n);
        for (size_t i = 0; i < targets.size(); ++i) {
          const VertexId v = targets.members()[i];
          if (algo_.ValuesDiffer(cur[v], fresh[i])) {
            bits.Set(v);
            next.push_back(v);
          }
          cur[v] = fresh[i];
        }
        store_.AppendChangedBits(std::move(bits));
      }
      frontier = std::move(next);
      ++stats_.iterations;
      ++level;
    }
    values_ = std::move(cur);
  }

  // ----- Async mode internals -----------------------------------------------

  // How far apart two values are, for priority ordering and the residual
  // sum. Arithmetic values use their absolute difference; structured values
  // (label arrays) count 1 per differing vertex.
  static double ResidualMagnitude(const Value& a, const Value& b) {
    if constexpr (std::is_arithmetic_v<Value>) {
      return std::fabs(static_cast<double>(a) - static_cast<double>(b));
    } else {
      return 1.0;
    }
  }

  // Propagates one vertex's pending delta: clears its active bit, pushes
  // (prop -> next) along every out-edge, publishes the new value. Racing
  // pushes into this vertex re-set the bit; the post-step residual scan
  // re-activates anything a relaxed-ordering race slipped past.
  // Copies one aggregate cell with element-wise atomic loads. Concurrent
  // PropagateOne calls CAS into the cell while this vertex reads it, and
  // mixed atomic/plain access to one location is a data race — the copy
  // pairs the read side with PushChange's atomics. Relaxed is enough: a
  // stale element only delays convergence, and the post-step residual
  // scan re-activates anything it left behind.
  static Aggregate LoadAggregateRelaxed(const Aggregate& cell) {
    if constexpr (std::is_arithmetic_v<Aggregate>) {
      return AtomicLoad(&cell);
    } else {
      Aggregate out{};
      for (size_t i = 0; i < cell.size(); ++i) {
        out[i] = AtomicLoad(&cell[i]);
      }
      return out;
    }
  }

  void PropagateOne(VertexId v) {
    async_active_.Clear(v);
    const Value cur = prop_values_[v];
    const Aggregate agg = LoadAggregateRelaxed(aggregates_[v]);
    const Value next = algo_.VertexCompute(v, agg, contexts_[v]);
    if (!algo_.ValuesDiffer(cur, next)) {
      return;
    }
    const auto out_nbrs = graph_->OutNeighbors(v);
    const auto out_wts = graph_->OutWeights(v);
    if constexpr (kStaged) {
      Contribution change[DeltaKernel<Algo>::kMaxStagedWidth]{};
      StageChange(v, cur, next, contexts_[v], change);
      for (const VertexId w : out_nbrs) {
        PushStaged(change, &aggregates_[w]);
        async_active_.Set(w);
      }
    } else {
      for (size_t e = 0; e < out_nbrs.size(); ++e) {
        PushChange(v, cur, next, out_wts[e], contexts_[v], contexts_[v],
                   &aggregates_[out_nbrs[e]]);
        async_active_.Set(out_nbrs[e]);
      }
    }
    prop_values_[v] = next;
    values_[v] = next;
  }

  // Full-scan residual: sums the pending change of every vertex that is off
  // its aggregate, re-activating it (self-healing against lost wakeups from
  // the relaxed clear/push race in PropagateOne). Deterministic reduction
  // tree, so the residual trajectory is reproducible for a fixed schedule.
  double ComputeAsyncResidual() {
    const VertexId n = graph_->num_vertices();
    return ParallelReduceSum<double>(0, n, [&](size_t vi) {
      const VertexId v = static_cast<VertexId>(vi);
      const Value next = algo_.VertexCompute(v, aggregates_[v], contexts_[v]);
      if (!algo_.ValuesDiffer(prop_values_[v], next)) {
        return 0.0;
      }
      async_active_.Set(v);
      return ResidualMagnitude(prop_values_[v], next);
    });
  }

  MutableGraph* graph_;
  Algo algo_;
  Options options_;
  std::vector<VertexContext> contexts_;
  std::vector<VertexContext> old_contexts_;  // pre-batch contexts while a batch refines
  std::vector<VertexId> spliced_endpoints_;  // fast-path splice endpoints since the last batch
  std::vector<Value> values_;
  std::vector<Aggregate> aggregates_;    // scratch for the initial run
  std::vector<Aggregate> level_scratch_;  // refinement working copy of one level
  LevelScratch value_scratch_[2];         // alternating per-level old/new values
  std::vector<Contribution> staged_;       // per-source staged changes of one dense level
  StoreT store_;
  EngineStats stats_;
  MutationBatch pending_;  // mutations buffered during refinement

  // Async-mode state (empty while in BSP mode).
  bool async_mode_ = false;
  std::vector<Value> prop_values_;  // values whose contributions are in aggregates_
  AtomicBitset async_active_;       // aggregate moved since last propagation
  double async_residual_ = 0.0;
};

}  // namespace graphbolt

#endif  // SRC_CORE_GRAPHBOLT_ENGINE_H_

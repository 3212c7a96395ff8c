// The streaming graph of §4.1: dual slack-CSR/CSC with batched in-place
// mutation.
//
// Out-edges live in a SlackCsr and in-edges in a reversed SlackCsr so
// engines can push (sparse frontiers) or pull (dense iterations /
// non-decomposable re-evaluation). Mutation batches are normalized (dedup,
// drop no-ops) and spliced into both views atomically, touching only the
// affected vertices — O(batch impact), not O(V+E); the normalized (Ea, Ed)
// result feeds refinement. The rebuild-on-apply Csr remains available as
// the reference implementation (csr.h) for differential tests and the
// old-path benchmark.
#ifndef SRC_GRAPH_MUTABLE_GRAPH_H_
#define SRC_GRAPH_MUTABLE_GRAPH_H_

#include <span>
#include <vector>

#include "src/graph/edge_list.h"
#include "src/graph/mutation.h"
#include "src/graph/slack_csr.h"
#include "src/graph/types.h"

namespace graphbolt {

class MutableGraph {
 public:
  // How ApplyBatch turns the normalized edits into arena updates.
  // kSplice always pays O(batch impact) per-vertex splicing; kRebuild
  // always rebuilds both views from a linear merge (O(V + E), but with a
  // much smaller constant than |impact| splices once impact rivals |E|);
  // kAuto picks per batch from the normalized impact — the crossover
  // measured by BENCH_mutation_throughput.json (rebuild wins at >= 1e5-edge
  // batches on ~1e6-edge graphs, splice at 0.82-0.92x below it).
  enum class ApplyStrategy { kAuto, kSplice, kRebuild };

  // kAuto rebuilds when impact >= kMinRebuildImpact and
  // impact * kRebuildImpactFactor >= |E| + impact (i.e. the batch touches
  // more than ~1/24 of the post-apply edge set) — the geometric middle of
  // the measured 0.8%-8% crossover band, gated by an absolute floor so
  // small graphs never rebuild.
  static constexpr size_t kMinRebuildImpact = 32768;
  static constexpr size_t kRebuildImpactFactor = 24;

  MutableGraph() = default;

  // Builds from an edge list (deduplicated internally).
  explicit MutableGraph(EdgeList edges);

  VertexId num_vertices() const { return out_.num_vertices(); }
  EdgeIndex num_edges() const { return out_.num_edges(); }

  const SlackCsr& out() const { return out_; }
  const SlackCsr& in() const { return in_; }

  size_t OutDegree(VertexId v) const { return out_.Degree(v); }
  size_t InDegree(VertexId v) const { return in_.Degree(v); }

  std::span<const VertexId> OutNeighbors(VertexId v) const { return out_.Neighbors(v); }
  std::span<const VertexId> InNeighbors(VertexId v) const { return in_.Neighbors(v); }
  std::span<const Weight> OutWeights(VertexId v) const { return out_.Weights(v); }
  std::span<const Weight> InWeights(VertexId v) const { return in_.Weights(v); }

  bool HasEdge(VertexId src, VertexId dst) const { return out_.HasEdge(src, dst); }
  Weight EdgeWeight(VertexId src, VertexId dst) const { return out_.EdgeWeight(src, dst); }

  // Adds `count` isolated vertices; returns the id of the first new vertex.
  VertexId AddVertices(VertexId count);

  // Computes the normalized effect of `batch` against the current graph
  // without applying it: duplicates collapsed (last mutation per endpoint
  // pair wins), self-loops dropped, no-op additions of present edges and
  // deletions of absent edges removed. Endpoints beyond the current vertex
  // range are treated as isolated vertices.
  AppliedMutations NormalizeBatch(const MutationBatch& batch) const;

  // Applies a batch atomically to both CSR and CSC views. Mutations that
  // reference vertices >= num_vertices() grow the vertex set first. Scratch
  // is sized by touched vertices, not V, so a 1-edge batch allocates O(1).
  // Returns the normalized effect (see NormalizeBatch).
  AppliedMutations ApplyBatch(const MutationBatch& batch);

  // Normalized effect of ONE mutation: at most one delete plus one add of
  // the same endpoint pair (the weight-update lowering). Equivalent to
  // NormalizeBatch({m}) but with no heap allocation — the single-update
  // fast path classifies against this on every IngestFast call.
  struct SingleEffect {
    bool has_add = false;
    bool has_delete = false;
    Edge added{};    // valid iff has_add
    Edge deleted{};  // valid iff has_delete
    bool Empty() const { return !has_add && !has_delete; }
  };
  SingleEffect NormalizeSingle(const EdgeMutation& m) const;

  // Applies one mutation with semantics identical to ApplyBatch({m}), but
  // the splice scratch is thread-local and reused across calls, so the
  // steady-state single-update fast path never touches the allocator.
  // Returns the normalized effect (see NormalizeSingle).
  SingleEffect ApplySingle(const EdgeMutation& m);

  // Exports all edges (sorted by (src, dst)); used by tests and snapshots.
  EdgeList ToEdgeList() const;

  // Compaction policy for both views (see slack_csr.h). Under kBackground,
  // ApplyBatch never compacts synchronously (short of the kForcedSyncSlack
  // backstop); slack is reclaimed by MaintenanceStep calls instead.
  void SetCompactionMode(SlackCsr::CompactionMode mode) {
    out_.SetCompactionMode(mode);
    in_.SetCompactionMode(mode);
  }

  // One background-compaction increment across both views; call from a
  // quiescent window (StreamDriver does, between batches under the engine
  // mutex). Returns true while either view still has a rewrite in flight.
  bool MaintenanceStep(size_t max_edges) {
    const bool out_pending = out_.MaintenanceStep(max_edges);
    const bool in_pending = in_.MaintenanceStep(max_edges);
    return out_pending || in_pending;
  }

  bool compaction_in_progress() const {
    return out_.compaction_in_progress() || in_.compaction_in_progress();
  }

  // Cumulative compaction counters summed over both views.
  SlackCsr::CompactionStats compaction_stats() const {
    SlackCsr::CompactionStats merged = out_.compaction_stats();
    const SlackCsr::CompactionStats& in_stats = in_.compaction_stats();
    merged.sync_compactions += in_stats.sync_compactions;
    merged.forced_sync_compactions += in_stats.forced_sync_compactions;
    merged.background_compactions += in_stats.background_compactions;
    merged.background_edges_copied += in_stats.background_edges_copied;
    merged.maintenance_steps += in_stats.maintenance_steps;
    return merged;
  }

  bool CheckInvariants() const { return out_.CheckInvariants() && in_.CheckInvariants() && out_.num_edges() == in_.num_edges(); }

  // Selects the ApplyBatch strategy (default kAuto). Forcing kSplice or
  // kRebuild pins the path for differential tests and benchmarks.
  void SetApplyStrategy(ApplyStrategy strategy) { strategy_ = strategy; }

  // Batches applied via the rebuild path since construction (cumulative;
  // drivers mirror this into EngineStats::adaptive_rebuilds).
  uint64_t adaptive_rebuilds() const { return adaptive_rebuilds_; }

 private:
  // Rebuilds both views from a linear merge of the current (sorted)
  // adjacency with the normalized edits. Bitwise-equivalent to splicing:
  // the merged edge array is sorted by (src, dst) with identical weights,
  // so Neighbors()/Weights() spans come back in the same order.
  void RebuildFromEdits(const AppliedMutations& result);

  SlackCsr out_;
  SlackCsr in_;
  ApplyStrategy strategy_ = ApplyStrategy::kAuto;
  uint64_t adaptive_rebuilds_ = 0;
};

}  // namespace graphbolt

#endif  // SRC_GRAPH_MUTABLE_GRAPH_H_

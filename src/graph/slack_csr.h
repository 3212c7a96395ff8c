// Slack-CSR adjacency: the mutable counterpart of Csr (which remains the
// reference rebuild-on-apply implementation, see csr.h).
//
// Each vertex owns a contiguous segment of a shared arena, sorted by target
// id so HasEdge's binary search and Triangle Counting's linear-merge
// intersection keep working unchanged. Segments carry capacity slack
// (power-of-two sized on relocation, RisGraph-style), so ApplyEdits is a
// parallel per-touched-vertex in-place splice — O(affected edges) instead
// of the O(V+E) rebuild Csr::ApplyEdits performs. A vertex that outgrows
// its capacity relocates to the arena tail; the hole it leaves becomes
// slack. When global slack exceeds kCompactionThreshold of the arena, a
// synchronous (background-free) compaction pass rewrites the arena using
// ParallelPrefixSum over the kept capacities. A segment that got its
// capacity from a relocation keeps it while it is at least a quarter full
// (KeptCapacity): rewriting a growing hub tight would make its next add
// relocate it again and strand its whole segment as slack, so an add-heavy
// stream would compact every few batches. Every other segment is rewritten
// tight. Slack is what a compaction would reclaim, arena_used() minus the
// kept capacities, tracked as segments change.
//
// Compaction modes: under CompactionMode::kSync (the default) that pass
// runs inside ApplyEdits, so the batch that crosses the threshold pays the
// whole O(V + E) rewrite. Under kBackground the rewrite is built
// incrementally into a *shadow arena* by MaintenanceStep(budget) calls
// issued from quiescent windows (StreamDriver runs them between batches,
// under the engine mutex, so maintenance never races reads or splices).
// Each step copies up to `budget` edges of clean segments; ApplyEdits marks
// every vertex it touches dirty, invalidating its shadow copy. When the
// sweep completes, the epoch flips: dirty segments are re-copied to the
// shadow tail and the shadow arrays are swapped in wholesale. ApplyBatch
// therefore never compacts synchronously — unless slack outruns
// maintenance past kForcedSyncSlack, the correctness backstop.
//
// Neighbors()/Weights() still return contiguous std::spans, which is what
// keeps the four engines and the dependency stores untouched at the
// call-site level.
#ifndef SRC_GRAPH_SLACK_CSR_H_
#define SRC_GRAPH_SLACK_CSR_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/graph/edge_list.h"
#include "src/graph/types.h"

namespace graphbolt {

class SlackCsr {
 public:
  // When the arena reclaims slack: inside ApplyEdits (kSync), or across
  // MaintenanceStep calls from quiescent windows (kBackground).
  enum class CompactionMode { kSync, kBackground };

  // Cumulative compaction accounting since construction (monotone, unlike
  // the per-call ApplyStats).
  struct CompactionStats {
    uint64_t sync_compactions = 0;        // full passes inside ApplyEdits
    uint64_t forced_sync_compactions = 0; // kBackground slack hit kForcedSyncSlack
    uint64_t background_compactions = 0;  // completed shadow flips
    uint64_t background_edges_copied = 0; // edges moved by maintenance steps
    uint64_t maintenance_steps = 0;       // MaintenanceStep calls that did work
  };
  // Per-touched-vertex edit list: targets to remove and (target, weight)
  // pairs to insert, both sorted by target. An add of a target that is also
  // being deleted re-inserts it (the weight-update lowering); an add of an
  // existing, undeleted target replaces its weight in place.
  struct VertexEdits {
    VertexId vertex = 0;
    std::vector<VertexId> deletes;
    std::vector<std::pair<VertexId, Weight>> adds;
  };

  // Work accounting of the most recent ApplyEdits call. The perf smoke test
  // asserts on these (deterministic, unlike wall-clock): edges_spliced must
  // scale with the batch, never with |E|.
  struct ApplyStats {
    size_t touched_vertices = 0;
    size_t edges_spliced = 0;   // entries moved by splices (untouched prefixes are free)
    size_t relocations = 0;     // segments moved to the arena tail
    size_t compactions = 0;     // whether this apply triggered compaction
    size_t compaction_edges = 0;  // edges moved by that compaction
    size_t rebuilds = 0;        // arena adopted wholesale (adaptive rebuild)
  };

  SlackCsr() = default;

  // Builds from an edge list with tight capacities (slack accrues only
  // where mutations land); `reverse` builds the CSC view.
  static SlackCsr FromEdges(VertexId num_vertices, std::span<const Edge> edges,
                            bool reverse = false);

  VertexId num_vertices() const { return static_cast<VertexId>(segments_.size()); }
  EdgeIndex num_edges() const { return live_edges_; }

  size_t Degree(VertexId v) const { return segments_[v].degree; }

  // Neighbor targets of v, sorted ascending, contiguous.
  std::span<const VertexId> Neighbors(VertexId v) const {
    const Segment& s = segments_[v];
    return {targets_.data() + s.offset, s.degree};
  }

  std::span<const Weight> Weights(VertexId v) const {
    const Segment& s = segments_[v];
    return {weights_.data() + s.offset, s.degree};
  }

  // True if edge (v, target) exists. O(log Degree(v)).
  bool HasEdge(VertexId v, VertexId target) const;

  // Weight of edge (v, target); kDefaultWeight if absent.
  Weight EdgeWeight(VertexId v, VertexId target) const;

  // Splices the per-touched-vertex edits into the arena in parallel:
  // O(Σ affected-vertex degrees), independent of V and E. Vertices listed
  // must be in range and listed at most once.
  void ApplyEdits(const std::vector<VertexEdits>& edits);

  // Grows the vertex set to `new_count` isolated (zero-capacity) vertices.
  void GrowVertices(VertexId new_count);

  // Rewrites the arena with every segment at its kept capacity (zero
  // slack; tight unless a relocated segment keeps its headroom).
  // Synchronous; also called automatically when slack passes the threshold
  // in kSync mode. Abandons any in-progress shadow compaction.
  void Compact();

  // Replaces the adjacency content with `rebuilt` (a freshly built tight
  // arena), keeping this view's compaction mode and cumulative compaction
  // counters. Any in-progress shadow compaction is abandoned (the rebuilt
  // arena has zero slack, so there is nothing left to reclaim). This is the
  // adaptive-rebuild path of MutableGraph::ApplyBatch: when a batch's
  // normalized impact rivals |E|, a linear-merge rebuild beats per-vertex
  // splicing (see BENCH_mutation_throughput.json). A rebuilt apply reports
  // zero edges_spliced in last_apply_stats() — the work was a rebuild, not
  // a splice — with `rebuilds` counting the adoption.
  void AdoptRebuilt(SlackCsr&& rebuilt);

  // Selects the compaction policy. Switching away from kBackground
  // abandons any in-progress shadow compaction (nothing was published yet,
  // so this is always safe).
  void SetCompactionMode(CompactionMode mode);
  CompactionMode compaction_mode() const { return compaction_mode_; }

  // One increment of background compaction: starts a shadow rewrite when
  // slack is over threshold, copies up to `max_edges` edges of clean
  // segments into it, and flips the epoch once the sweep completes. Must be
  // called from a quiescent window (no concurrent reads or ApplyEdits —
  // StreamDriver holds the engine mutex). Returns true while a shadow
  // rewrite remains in progress after the call. No-op in kSync mode.
  bool MaintenanceStep(size_t max_edges);

  bool compaction_in_progress() const { return shadow_.active; }

  const CompactionStats& compaction_stats() const { return compaction_stats_; }

  // Cumulative out-degree array (size V+1, prefix[v] = Σ_{u<v} degree(u)),
  // the replacement for Csr::offsets() in uniform-random edge sampling.
  // Rebuilt lazily after mutations — O(V) amortized over a batch of
  // samples. Not safe to call concurrently with mutation.
  const std::vector<EdgeIndex>& DegreePrefix() const;

  // Arena cells allocated, and the fraction of them a compaction would
  // reclaim: slack = used - Σ kept capacities.
  EdgeIndex arena_used() const { return arena_used_; }
  double SlackFraction() const {
    return arena_used_ == 0
               ? 0.0
               : static_cast<double>(arena_used_ - kept_cells_) / static_cast<double>(arena_used_);
  }

  const ApplyStats& last_apply_stats() const { return last_apply_; }

  // Validation: segments in bounds and non-overlapping, degrees within
  // capacity, targets in range and strictly sorted, edge count consistent.
  bool CheckInvariants() const;

  // Slack above this fraction of the arena triggers compaction (~30%).
  static constexpr double kCompactionThreshold = 0.30;
  // In kBackground mode, slack past this fraction forces a synchronous
  // compaction anyway — the backstop when mutation outruns maintenance.
  static constexpr double kForcedSyncSlack = 0.60;
  // Arenas smaller than this never compact (the rebuild would cost more
  // than the slack is worth).
  static constexpr EdgeIndex kMinCompactionArena = 1024;

 private:
  struct Segment {
    EdgeIndex offset = 0;
    uint32_t degree = 0;
    uint32_t capacity : 31 = 0;
    uint32_t relocated : 1 = 0;  // capacity came from a relocation
  };

  // In-progress shadow rewrite (kBackground). `offsets` fixes each clean
  // vertex's slot from its kept capacity at start-of-epoch; segments edited
  // after their copy (or before it) are flagged dirty and re-copied to the
  // shadow tail at the flip, so the published arena is always current.
  struct ShadowState {
    bool active = false;
    std::vector<EdgeIndex> offsets;  // size V at start (grown with vertices)
    std::vector<uint8_t> dirty;      // parallel to offsets
    std::vector<VertexId> targets;
    std::vector<Weight> weights;
    VertexId copied_up_to = 0;  // clean-copy sweep cursor
    EdgeIndex total = 0;        // Σ degrees at start of epoch
  };

  void StartShadowCompaction();
  // Copies up to `max_edges` edges of clean segments; returns edges copied.
  size_t CopyShadowChunk(size_t max_edges);
  // Re-copies dirty segments to the shadow tail and publishes the shadow
  // arrays as the arena (the epoch flip).
  void FinishShadowCompaction();

  // Power-of-two capacity for a relocated segment of `degree` edges.
  static uint32_t RelocationCapacity(uint32_t degree);

  // The capacity a compaction gives `s`: its own when it came from a
  // relocation and is at most four times its degree, its degree otherwise.
  static uint32_t KeptCapacity(const Segment& s) {
    return s.relocated && s.capacity <= 4 * uint64_t{s.degree} ? s.capacity : s.degree;
  }
  // Sets every segment's capacity to its kept one at `offsets[v]`.
  void AdoptKeptLayout(const std::vector<EdgeIndex>& offsets);

  std::vector<Segment> segments_;   // size V
  std::vector<VertexId> targets_;   // shared arena, sorted per segment
  std::vector<Weight> weights_;     // parallel to targets_
  EdgeIndex arena_used_ = 0;        // allocation high-water mark in the arena
  EdgeIndex live_edges_ = 0;        // Σ degrees
  EdgeIndex kept_cells_ = 0;        // Σ KeptCapacity: the arena a compaction leaves

  ApplyStats last_apply_;

  CompactionMode compaction_mode_ = CompactionMode::kSync;
  ShadowState shadow_;
  CompactionStats compaction_stats_;

  mutable std::vector<EdgeIndex> degree_prefix_;  // lazy, size V+1 when valid
  mutable bool prefix_valid_ = false;
};

}  // namespace graphbolt

#endif  // SRC_GRAPH_SLACK_CSR_H_

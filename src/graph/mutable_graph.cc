#include "src/graph/mutable_graph.h"

#include <algorithm>

#include "src/util/logging.h"

namespace graphbolt {
namespace {

// Groups normalized adds/deletes into per-touched-vertex edit lists keyed by
// `key` (src for the CSR view, dst for the CSC view). Scratch is O(batch):
// the ops are sorted by (key, target) and swept once.
std::vector<SlackCsr::VertexEdits> GroupEdits(const AppliedMutations& result, bool key_by_dst) {
  struct Op {
    VertexId key;
    VertexId target;
    Weight weight;
    bool is_add;
  };
  std::vector<Op> ops;
  ops.reserve(result.added.size() + result.deleted.size());
  for (const Edge& e : result.added) {
    ops.push_back(key_by_dst ? Op{e.dst, e.src, e.weight, true} : Op{e.src, e.dst, e.weight, true});
  }
  for (const Edge& e : result.deleted) {
    ops.push_back(key_by_dst ? Op{e.dst, e.src, e.weight, false}
                             : Op{e.src, e.dst, e.weight, false});
  }
  std::sort(ops.begin(), ops.end(), [](const Op& a, const Op& b) {
    if (a.key != b.key) {
      return a.key < b.key;
    }
    return a.target < b.target;
  });

  std::vector<SlackCsr::VertexEdits> edits;
  for (const Op& op : ops) {
    if (edits.empty() || edits.back().vertex != op.key) {
      edits.push_back({op.key, {}, {}});
    }
    if (op.is_add) {
      edits.back().adds.push_back({op.target, op.weight});
    } else {
      edits.back().deletes.push_back(op.target);
    }
  }
  return edits;
}

}  // namespace

MutableGraph::MutableGraph(EdgeList edges) {
  edges.SortAndDeduplicate();
  out_ = SlackCsr::FromEdges(edges.num_vertices(), edges.edges(), /*reverse=*/false);
  in_ = SlackCsr::FromEdges(edges.num_vertices(), edges.edges(), /*reverse=*/true);
}

VertexId MutableGraph::AddVertices(VertexId count) {
  const VertexId first = num_vertices();
  out_.GrowVertices(first + count);
  in_.GrowVertices(first + count);
  return first;
}

AppliedMutations MutableGraph::NormalizeBatch(const MutationBatch& batch) const {
  AppliedMutations result;
  // Normalize: last mutation per endpoint pair wins; self-loops dropped.
  // A stable sort by endpoints keeps each pair's mutations in batch order,
  // so the last of a run is the one that wins, and the runs come out in
  // (src, dst) order.
  std::vector<EdgeMutation> sorted;
  sorted.reserve(batch.size());
  for (const EdgeMutation& m : batch) {
    if (m.src != m.dst) {
      sorted.push_back(m);
    }
  }
  auto same_pair = [](const EdgeMutation& a, const EdgeMutation& b) {
    return a.src == b.src && a.dst == b.dst;
  };
  std::stable_sort(sorted.begin(), sorted.end(), [](const EdgeMutation& a, const EdgeMutation& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });
  const VertexId n = num_vertices();
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i + 1 < sorted.size() && same_pair(sorted[i], sorted[i + 1])) {
      continue;  // a later mutation of the pair wins
    }
    const EdgeMutation& m = sorted[i];
    const VertexId src = m.src;
    const VertexId dst = m.dst;
    const bool exists = src < n && dst < n && out_.HasEdge(src, dst);
    switch (m.kind) {
      case MutationKind::kAddEdge:
        if (!exists) {
          result.added.push_back({src, dst, m.weight});
        }
        break;
      case MutationKind::kDeleteEdge:
        if (exists) {
          result.deleted.push_back({src, dst, out_.EdgeWeight(src, dst)});
        }
        break;
      case MutationKind::kUpdateWeight:
        // Lowered to delete(old weight) + add(new weight) so engines can
        // retract the old contribution exactly.
        if (exists) {
          const Weight old_weight = out_.EdgeWeight(src, dst);
          if (old_weight != m.weight) {
            result.deleted.push_back({src, dst, old_weight});
            result.added.push_back({src, dst, m.weight});
          }
        }
        break;
    }
  }
  return result;
}

MutableGraph::SingleEffect MutableGraph::NormalizeSingle(const EdgeMutation& m) const {
  SingleEffect eff;
  if (m.src == m.dst) {
    return eff;
  }
  const VertexId n = num_vertices();
  const bool exists = m.src < n && m.dst < n && out_.HasEdge(m.src, m.dst);
  switch (m.kind) {
    case MutationKind::kAddEdge:
      if (!exists) {
        eff.has_add = true;
        eff.added = {m.src, m.dst, m.weight};
      }
      break;
    case MutationKind::kDeleteEdge:
      if (exists) {
        eff.has_delete = true;
        eff.deleted = {m.src, m.dst, out_.EdgeWeight(m.src, m.dst)};
      }
      break;
    case MutationKind::kUpdateWeight:
      if (exists) {
        const Weight old_weight = out_.EdgeWeight(m.src, m.dst);
        if (old_weight != m.weight) {
          eff.has_delete = true;
          eff.deleted = {m.src, m.dst, old_weight};
          eff.has_add = true;
          eff.added = {m.src, m.dst, m.weight};
        }
      }
      break;
  }
  return eff;
}

MutableGraph::SingleEffect MutableGraph::ApplySingle(const EdgeMutation& m) {
  if (strategy_ == ApplyStrategy::kRebuild) {
    // The rebuild reference path has no single-mutation shape; delegate so
    // differential tests see identical arena states on both routes.
    const AppliedMutations result = ApplyBatch(MutationBatch{m});
    SingleEffect eff;
    if (!result.added.empty()) {
      eff.has_add = true;
      eff.added = result.added.front();
    }
    if (!result.deleted.empty()) {
      eff.has_delete = true;
      eff.deleted = result.deleted.front();
    }
    return eff;
  }
  const VertexId max_vertex = std::max(m.src, m.dst);
  if (max_vertex >= num_vertices()) {
    AddVertices(max_vertex + 1 - num_vertices());
  }
  const SingleEffect eff = NormalizeSingle(m);
  if (eff.Empty()) {
    return eff;
  }
  // One touched vertex per view. The edit lists persist per thread so the
  // hot path (safe IngestFast splices) runs allocation-free once warm.
  static thread_local std::vector<SlackCsr::VertexEdits> out_edits(1);
  static thread_local std::vector<SlackCsr::VertexEdits> in_edits(1);
  const auto fill = [&eff](std::vector<SlackCsr::VertexEdits>& edits, VertexId key,
                           VertexId target) {
    SlackCsr::VertexEdits& ed = edits.front();
    ed.vertex = key;
    ed.deletes.clear();
    ed.adds.clear();
    if (eff.has_delete) {
      ed.deletes.push_back(target);
    }
    if (eff.has_add) {
      ed.adds.push_back({target, eff.added.weight});
    }
  };
  fill(out_edits, m.src, m.dst);
  fill(in_edits, m.dst, m.src);
  out_.ApplyEdits(out_edits);
  in_.ApplyEdits(in_edits);
  return eff;
}

AppliedMutations MutableGraph::ApplyBatch(const MutationBatch& batch) {
  AppliedMutations result;
  if (batch.empty()) {
    return result;
  }

  // Grow the vertex set to cover every referenced endpoint.
  VertexId max_vertex = 0;
  for (const EdgeMutation& m : batch) {
    max_vertex = std::max({max_vertex, m.src, m.dst});
  }
  if (max_vertex >= num_vertices()) {
    AddVertices(max_vertex + 1 - num_vertices());
  }

  result = NormalizeBatch(batch);
  if (result.Empty()) {
    return result;
  }

  // Splice-vs-rebuild decision: splicing is O(impact) and wins for small
  // batches; once the normalized impact rivals the edge set, one linear
  // merge + tight rebuild is cheaper than |impact| per-vertex splices.
  const size_t impact = result.added.size() + result.deleted.size();
  const bool rebuild =
      strategy_ == ApplyStrategy::kRebuild ||
      (strategy_ == ApplyStrategy::kAuto && impact >= kMinRebuildImpact &&
       impact * kRebuildImpactFactor >= static_cast<size_t>(num_edges()) + impact);
  if (rebuild) {
    RebuildFromEdits(result);
    ++adaptive_rebuilds_;
    return result;
  }

  const std::vector<SlackCsr::VertexEdits> out_edits = GroupEdits(result, /*key_by_dst=*/false);
  const std::vector<SlackCsr::VertexEdits> in_edits = GroupEdits(result, /*key_by_dst=*/true);
  out_.ApplyEdits(out_edits);
  in_.ApplyEdits(in_edits);
  return result;
}

void MutableGraph::RebuildFromEdits(const AppliedMutations& result) {
  const VertexId n = num_vertices();
  const std::vector<SlackCsr::VertexEdits> out_edits = GroupEdits(result, /*key_by_dst=*/false);
  std::vector<Edge> merged;
  merged.reserve(static_cast<size_t>(num_edges()) + result.added.size());
  size_t ei = 0;
  for (VertexId v = 0; v < n; ++v) {
    const auto nbrs = out_.Neighbors(v);
    const auto wts = out_.Weights(v);
    if (ei >= out_edits.size() || out_edits[ei].vertex != v) {
      for (size_t i = 0; i < nbrs.size(); ++i) {
        merged.push_back({v, nbrs[i], wts[i]});
      }
      continue;
    }
    // Three-way merge per touched vertex, all inputs sorted by target. An
    // add wins a tie with an existing entry (the weight-update lowering
    // re-inserts under the new weight) and retires any delete of the same
    // target; a delete drops the existing entry.
    const SlackCsr::VertexEdits& ed = out_edits[ei];
    ++ei;
    size_t i = 0;
    size_t a = 0;
    size_t d = 0;
    while (i < nbrs.size() || a < ed.adds.size()) {
      if (a < ed.adds.size() && (i >= nbrs.size() || ed.adds[a].first <= nbrs[i])) {
        const VertexId target = ed.adds[a].first;
        merged.push_back({v, target, ed.adds[a].second});
        if (i < nbrs.size() && nbrs[i] == target) {
          ++i;  // replaced the existing entry
        }
        while (d < ed.deletes.size() && ed.deletes[d] <= target) {
          ++d;  // delete superseded by the re-insert
        }
        ++a;
      } else {
        const VertexId target = nbrs[i];
        while (d < ed.deletes.size() && ed.deletes[d] < target) {
          ++d;
        }
        if (d < ed.deletes.size() && ed.deletes[d] == target) {
          ++d;
          ++i;
          continue;
        }
        merged.push_back({v, target, wts[i]});
        ++i;
      }
    }
  }
  out_.AdoptRebuilt(SlackCsr::FromEdges(n, merged, /*reverse=*/false));
  in_.AdoptRebuilt(SlackCsr::FromEdges(n, merged, /*reverse=*/true));
}

EdgeList MutableGraph::ToEdgeList() const {
  EdgeList list;
  list.set_num_vertices(num_vertices());
  for (VertexId v = 0; v < num_vertices(); ++v) {
    const auto nbrs = out_.Neighbors(v);
    const auto wts = out_.Weights(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      list.edges().push_back({v, nbrs[i], wts[i]});
    }
  }
  return list;
}

}  // namespace graphbolt

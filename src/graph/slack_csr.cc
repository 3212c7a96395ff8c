#include "src/graph/slack_csr.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/parallel/parallel_for.h"
#include "src/parallel/reducer.h"
#include "src/util/logging.h"

namespace graphbolt {

SlackCsr SlackCsr::FromEdges(VertexId num_vertices, std::span<const Edge> edges, bool reverse) {
  SlackCsr csr;
  csr.segments_.assign(num_vertices, Segment{});

  std::vector<EdgeIndex> degrees(num_vertices, 0);
  for (const Edge& e : edges) {
    const VertexId from = reverse ? e.dst : e.src;
    GB_CHECK(from < num_vertices) << "edge endpoint out of range";
    ++degrees[from];
  }
  std::vector<EdgeIndex> offsets = degrees;
  const EdgeIndex total = ParallelPrefixSum(offsets);
  for (VertexId v = 0; v < num_vertices; ++v) {
    csr.segments_[v].offset = offsets[v];
    csr.segments_[v].degree = static_cast<uint32_t>(degrees[v]);
    csr.segments_[v].capacity = static_cast<uint32_t>(degrees[v]);
  }
  csr.arena_used_ = total;
  csr.live_edges_ = total;
  csr.kept_cells_ = total;

  csr.targets_.resize(total);
  csr.weights_.resize(total);
  std::vector<EdgeIndex> cursor = offsets;
  for (const Edge& e : edges) {
    const VertexId from = reverse ? e.dst : e.src;
    const VertexId to = reverse ? e.src : e.dst;
    const EdgeIndex slot = cursor[from]++;
    csr.targets_[slot] = to;
    csr.weights_[slot] = e.weight;
  }

  // Sort each segment by target (weights move with their targets).
  ParallelFor(0, num_vertices, [&csr](size_t v) {
    const Segment& s = csr.segments_[v];
    if (s.degree <= 1) {
      return;
    }
    std::vector<std::pair<VertexId, Weight>> scratch(s.degree);
    for (size_t i = 0; i < s.degree; ++i) {
      scratch[i] = {csr.targets_[s.offset + i], csr.weights_[s.offset + i]};
    }
    std::sort(scratch.begin(), scratch.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (size_t i = 0; i < s.degree; ++i) {
      csr.targets_[s.offset + i] = scratch[i].first;
      csr.weights_[s.offset + i] = scratch[i].second;
    }
  }, /*grain=*/256);
  return csr;
}

bool SlackCsr::HasEdge(VertexId v, VertexId target) const {
  const auto nbrs = Neighbors(v);
  return std::binary_search(nbrs.begin(), nbrs.end(), target);
}

Weight SlackCsr::EdgeWeight(VertexId v, VertexId target) const {
  const auto nbrs = Neighbors(v);
  auto it = std::lower_bound(nbrs.begin(), nbrs.end(), target);
  if (it == nbrs.end() || *it != target) {
    return kDefaultWeight;
  }
  return weights_[segments_[v].offset + static_cast<EdgeIndex>(it - nbrs.begin())];
}

uint32_t SlackCsr::RelocationCapacity(uint32_t degree) {
  return std::bit_ceil(std::max<uint32_t>(degree, 4));
}

void SlackCsr::ApplyEdits(const std::vector<VertexEdits>& edits) {
  last_apply_ = ApplyStats{};
  last_apply_.touched_vertices = edits.size();
  if (edits.empty()) {
    return;
  }
  prefix_valid_ = false;

  // Phase 1 (parallel): new degree per touched vertex. An add whose target
  // already exists and is not being deleted replaces the edge in place, so
  // it does not change the degree.
  std::vector<uint32_t> new_degrees(edits.size());
  ParallelFor(0, edits.size(), [&, this](size_t i) {
    const VertexEdits& e = edits[i];
    GB_CHECK(e.vertex < num_vertices()) << "edit references out-of-range vertex " << e.vertex;
    const size_t old_degree = Degree(e.vertex);
    GB_CHECK(e.deletes.size() <= old_degree)
        << "more deletions than edges at vertex " << e.vertex;
    const auto nbrs = Neighbors(e.vertex);
    size_t overlap = 0;
    size_t di = 0;
    for (const auto& [target, weight] : e.adds) {
      while (di < e.deletes.size() && e.deletes[di] < target) {
        ++di;
      }
      const bool deleted = di < e.deletes.size() && e.deletes[di] == target;
      if (!deleted && std::binary_search(nbrs.begin(), nbrs.end(), target)) {
        ++overlap;
      }
    }
    new_degrees[i] = static_cast<uint32_t>(old_degree - e.deletes.size() + e.adds.size() - overlap);
  }, /*grain=*/64);

  // Phase 2 (serial, O(#relocations)): assign tail slots for segments that
  // outgrew their capacity, then grow the arena once so no data pointer
  // moves during the parallel splice.
  constexpr EdgeIndex kNoReloc = ~EdgeIndex{0};
  std::vector<EdgeIndex> reloc_offset(edits.size(), kNoReloc);
  std::vector<uint32_t> new_capacity(edits.size());
  EdgeIndex cursor = arena_used_;
  int64_t degree_delta = 0;
  int64_t kept_delta = 0;
  for (size_t i = 0; i < edits.size(); ++i) {
    const Segment& s = segments_[edits[i].vertex];
    degree_delta += static_cast<int64_t>(new_degrees[i]) - static_cast<int64_t>(s.degree);
    Segment after = s;
    after.degree = new_degrees[i];
    if (new_degrees[i] > s.capacity) {
      after.capacity = RelocationCapacity(new_degrees[i]);
      after.relocated = 1;
      reloc_offset[i] = cursor;
      cursor += after.capacity;
      ++last_apply_.relocations;
    }
    new_capacity[i] = after.capacity;
    kept_delta += static_cast<int64_t>(KeptCapacity(after)) - static_cast<int64_t>(KeptCapacity(s));
  }
  if (cursor > targets_.size()) {
    // The vectors' geometric capacity growth amortizes a stream of
    // relocations to O(1) per edge. Sizing them only to what is used
    // leaves their spare capacity untouched, out of resident memory.
    targets_.resize(cursor);
    weights_.resize(cursor);
  }

  // Phase 3 (parallel): run-based three-way merge of (old \ deletes) with
  // adds, per touched vertex. Unedited runs between edit targets (located
  // by binary search) move as bulk memmoves, so a hub vertex with a handful
  // of edits costs a few block copies, not O(degree) branches. The prefix
  // below the first edit target never moves for an in-place splice.
  // Destination dispatch:
  //   - relocated:          merge straight into the fresh tail slot
  //   - in-place, shrink:   merge onto itself (writes trail reads when no
  //                         adds are present, so forward memmove is safe)
  //   - in-place, w/ adds:  merge the suffix from the first edit through a
  //                         reused thread-local scratch, copy back once
  std::vector<size_t> spliced(edits.size(), 0);
  ParallelFor(0, edits.size(), [&, this](size_t i) {
    const VertexEdits& e = edits[i];
    Segment& seg = segments_[e.vertex];
    const EdgeIndex src = seg.offset;
    const uint32_t old_degree = seg.degree;
    const uint32_t new_degree = new_degrees[i];
    const VertexId* old_t = targets_.data() + src;
    const Weight* old_w = weights_.data() + src;
    const size_t num_deletes = e.deletes.size();
    const size_t num_adds = e.adds.size();

    // Merges old[oi..old_degree) with every edit into (dst_t, dst_w);
    // returns the number of entries written. memmove tolerates the
    // aliasing shrink case (dst trails the read cursor).
    auto merge_from = [&](size_t oi, VertexId* dst_t, Weight* dst_w) -> size_t {
      size_t out = 0;
      size_t di = 0;
      size_t ai = 0;
      while (di < num_deletes || ai < num_adds) {
        const VertexId t = (di < num_deletes &&
                            (ai == num_adds || e.deletes[di] <= e.adds[ai].first))
                               ? e.deletes[di]
                               : e.adds[ai].first;
        const size_t j = static_cast<size_t>(
            std::lower_bound(old_t + oi, old_t + old_degree, t) - old_t);
        if (j > oi) {
          std::memmove(dst_t + out, old_t + oi, (j - oi) * sizeof(VertexId));
          std::memmove(dst_w + out, old_w + oi, (j - oi) * sizeof(Weight));
          out += j - oi;
          oi = j;
        }
        const bool present = oi < old_degree && old_t[oi] == t;
        bool consumed = false;
        if (di < num_deletes && e.deletes[di] == t) {
          ++di;
          if (present) {
            ++oi;  // deleted: skip the old entry
            consumed = true;
          }
        }
        if (ai < num_adds && e.adds[ai].first == t) {
          // A fresh insertion, or a re-add replacing the existing weight.
          dst_t[out] = t;
          dst_w[out] = e.adds[ai].second;
          ++out;
          ++ai;
          if (present && !consumed) {
            ++oi;
          }
        }
      }
      if (oi < old_degree) {
        std::memmove(dst_t + out, old_t + oi, (old_degree - oi) * sizeof(VertexId));
        std::memmove(dst_w + out, old_w + oi, (old_degree - oi) * sizeof(Weight));
        out += old_degree - oi;
      }
      return out;
    };

    size_t moved = 0;
    if (reloc_offset[i] != kNoReloc) {
      moved = merge_from(0, targets_.data() + reloc_offset[i],
                         weights_.data() + reloc_offset[i]);
      GB_CHECK(moved == new_degree) << "splice produced wrong degree at vertex " << e.vertex;
      seg.offset = reloc_offset[i];
      seg.capacity = new_capacity[i];
      seg.relocated = 1;
    } else {
      // First edit position: everything below it stays untouched in place.
      const VertexId first_edit = num_deletes == 0 ? e.adds.front().first
                                  : num_adds == 0
                                      ? e.deletes.front()
                                      : std::min(e.deletes.front(), e.adds.front().first);
      const size_t j0 = static_cast<size_t>(
          std::lower_bound(old_t, old_t + old_degree, first_edit) - old_t);
      VertexId* base_t = targets_.data() + src;
      Weight* base_w = weights_.data() + src;
      if (num_adds == 0) {
        moved = merge_from(j0, base_t + j0, base_w + j0);
      } else {
        thread_local std::vector<VertexId> scratch_t;
        thread_local std::vector<Weight> scratch_w;
        const size_t suffix = static_cast<size_t>(new_degree) - j0;
        if (scratch_t.size() < suffix) {
          scratch_t.resize(suffix);
          scratch_w.resize(suffix);
        }
        moved = merge_from(j0, scratch_t.data(), scratch_w.data());
        std::memcpy(base_t + j0, scratch_t.data(), moved * sizeof(VertexId));
        std::memcpy(base_w + j0, scratch_w.data(), moved * sizeof(Weight));
      }
      GB_CHECK(j0 + moved == new_degree)
          << "splice produced wrong degree at vertex " << e.vertex;
    }
    seg.degree = new_degree;
    spliced[i] = moved;  // actually-moved entries; the untouched prefix is free
  }, /*grain=*/16);

  for (const size_t s : spliced) {
    last_apply_.edges_spliced += s;
  }
  arena_used_ = cursor;
  live_edges_ = static_cast<EdgeIndex>(static_cast<int64_t>(live_edges_) + degree_delta);
  kept_cells_ = static_cast<EdgeIndex>(static_cast<int64_t>(kept_cells_) + kept_delta);

  if (shadow_.active) {
    // Any touched segment's shadow copy (made or pending) is stale: its
    // degree, content, or offset changed. Re-copied at the flip.
    for (const VertexEdits& e : edits) {
      shadow_.dirty[e.vertex] = 1;
    }
  }

  const bool sizable = arena_used_ >= kMinCompactionArena;
  if (compaction_mode_ == CompactionMode::kSync) {
    if (sizable && SlackFraction() > kCompactionThreshold) {
      last_apply_.compactions = 1;
      last_apply_.compaction_edges = live_edges_;
      Compact();
    }
  } else if (sizable && SlackFraction() > kForcedSyncSlack) {
    // Maintenance fell behind the mutation rate; compact now rather than
    // let the arena grow without bound.
    last_apply_.compactions = 1;
    last_apply_.compaction_edges = live_edges_;
    ++compaction_stats_.forced_sync_compactions;
    Compact();
  }
}

void SlackCsr::GrowVertices(VertexId new_count) {
  if (new_count <= num_vertices()) {
    return;
  }
  prefix_valid_ = false;
  segments_.resize(new_count, Segment{});
  if (shadow_.active) {
    // Vertices born mid-epoch have no shadow slot; route them through the
    // dirty tail at the flip (zero degree unless edited, which re-flags).
    shadow_.offsets.resize(new_count, shadow_.total);
    shadow_.dirty.resize(new_count, 1);
  }
}

void SlackCsr::Compact() {
  ++compaction_stats_.sync_compactions;
  shadow_ = ShadowState{};  // a full rewrite supersedes any shadow epoch
  const VertexId n = num_vertices();
  prefix_valid_ = false;
  std::vector<EdgeIndex> offsets(n);
  ParallelFor(0, n, [&](size_t v) { offsets[v] = KeptCapacity(segments_[v]); });
  const EdgeIndex total = ParallelPrefixSum(offsets);
  GB_CHECK(total == kept_cells_) << "kept capacities disagree with their running sum";

  std::vector<VertexId> new_targets(total);
  std::vector<Weight> new_weights(total);
  ParallelFor(0, n, [&, this](size_t v) {
    Segment& s = segments_[v];
    std::copy_n(targets_.data() + s.offset, s.degree, new_targets.data() + offsets[v]);
    std::copy_n(weights_.data() + s.offset, s.degree, new_weights.data() + offsets[v]);
  }, /*grain=*/256);
  // Segment metadata is rewritten after the copy: the copy reads old
  // offsets, and each vertex is owned by exactly one task either way.
  AdoptKeptLayout(offsets);
  targets_ = std::move(new_targets);
  weights_ = std::move(new_weights);
  arena_used_ = total;
}

void SlackCsr::AdoptKeptLayout(const std::vector<EdgeIndex>& offsets) {
  ParallelFor(0, num_vertices(), [&](size_t v) {
    Segment& s = segments_[v];
    const uint32_t kept = KeptCapacity(s);
    s.relocated = s.relocated && kept == s.capacity ? 1 : 0;
    s.capacity = kept;
    s.offset = offsets[v];
  });
}

void SlackCsr::AdoptRebuilt(SlackCsr&& rebuilt) {
  const CompactionMode mode = compaction_mode_;
  CompactionStats stats = compaction_stats_;
  *this = std::move(rebuilt);
  compaction_mode_ = mode;
  compaction_stats_ = stats;
  shadow_ = ShadowState{};  // unpublished; a wholesale rebuild supersedes it
  last_apply_ = ApplyStats{};
  last_apply_.rebuilds = 1;
  prefix_valid_ = false;
}

void SlackCsr::SetCompactionMode(CompactionMode mode) {
  if (mode == compaction_mode_) {
    return;
  }
  compaction_mode_ = mode;
  shadow_ = ShadowState{};  // unpublished; always safe to discard
}

bool SlackCsr::MaintenanceStep(size_t max_edges) {
  if (compaction_mode_ != CompactionMode::kBackground) {
    return false;
  }
  if (!shadow_.active) {
    if (arena_used_ < kMinCompactionArena || SlackFraction() <= kCompactionThreshold) {
      return false;
    }
    StartShadowCompaction();
  }
  ++compaction_stats_.maintenance_steps;
  compaction_stats_.background_edges_copied += CopyShadowChunk(max_edges);
  if (shadow_.copied_up_to >= num_vertices()) {
    FinishShadowCompaction();
  }
  return shadow_.active;
}

void SlackCsr::StartShadowCompaction() {
  const VertexId n = num_vertices();
  shadow_.offsets.resize(n);
  ParallelFor(0, n, [this](size_t v) { shadow_.offsets[v] = KeptCapacity(segments_[v]); });
  shadow_.total = ParallelPrefixSum(shadow_.offsets);
  GB_CHECK(shadow_.total == kept_cells_) << "kept capacities disagree with their running sum";
  shadow_.targets.resize(shadow_.total);
  shadow_.weights.resize(shadow_.total);
  shadow_.dirty.assign(n, 0);
  shadow_.copied_up_to = 0;
  shadow_.active = true;
}

size_t SlackCsr::CopyShadowChunk(size_t max_edges) {
  const VertexId limit = num_vertices();
  const VertexId start = shadow_.copied_up_to;
  VertexId end = start;
  size_t budget = 0;
  while (end < limit && budget < max_edges) {
    if (!shadow_.dirty[end]) {
      budget += segments_[end].degree;
    }
    ++end;
  }
  ParallelFor(start, end, [this](size_t v) {
    if (shadow_.dirty[v]) {
      return;  // stale; re-copied at the flip
    }
    const Segment& s = segments_[v];
    std::copy_n(targets_.data() + s.offset, s.degree,
                shadow_.targets.data() + shadow_.offsets[v]);
    std::copy_n(weights_.data() + s.offset, s.degree,
                shadow_.weights.data() + shadow_.offsets[v]);
  }, /*grain=*/256);
  shadow_.copied_up_to = end;
  return budget;
}

void SlackCsr::FinishShadowCompaction() {
  const VertexId n = num_vertices();
  // Dirty segments append after the clean block. Their original shadow
  // slots become slack in the new arena — bounded by the edit traffic of
  // one epoch, far below the threshold that started it.
  EdgeIndex tail = shadow_.total;
  for (VertexId v = 0; v < n; ++v) {
    if (shadow_.dirty[v]) {
      shadow_.offsets[v] = tail;
      tail += KeptCapacity(segments_[v]);
    }
  }
  shadow_.targets.resize(tail);
  shadow_.weights.resize(tail);
  ParallelFor(0, n, [this](size_t v) {
    if (!shadow_.dirty[v]) {
      return;
    }
    const Segment& s = segments_[v];
    std::copy_n(targets_.data() + s.offset, s.degree,
                shadow_.targets.data() + shadow_.offsets[v]);
    std::copy_n(weights_.data() + s.offset, s.degree,
                shadow_.weights.data() + shadow_.offsets[v]);
  }, /*grain=*/256);
  AdoptKeptLayout(shadow_.offsets);
  targets_ = std::move(shadow_.targets);
  weights_ = std::move(shadow_.weights);
  arena_used_ = tail;
  prefix_valid_ = false;
  ++compaction_stats_.background_compactions;
  shadow_ = ShadowState{};
}

const std::vector<EdgeIndex>& SlackCsr::DegreePrefix() const {
  if (!prefix_valid_ || degree_prefix_.size() != static_cast<size_t>(num_vertices()) + 1) {
    const VertexId n = num_vertices();
    degree_prefix_.resize(n);
    ParallelFor(0, n, [this](size_t v) { degree_prefix_[v] = segments_[v].degree; });
    const EdgeIndex total = ParallelPrefixSum(degree_prefix_);
    degree_prefix_.push_back(total);
    prefix_valid_ = true;
  }
  return degree_prefix_;
}

bool SlackCsr::CheckInvariants() const {
  const VertexId n = num_vertices();
  EdgeIndex degree_sum = 0;
  EdgeIndex kept_sum = 0;
  std::vector<std::pair<EdgeIndex, EdgeIndex>> extents;  // (offset, offset+capacity)
  extents.reserve(n);
  for (VertexId v = 0; v < n; ++v) {
    const Segment& s = segments_[v];
    if (s.degree > s.capacity) {
      return false;
    }
    if (s.offset + s.capacity > arena_used_) {
      return false;
    }
    degree_sum += s.degree;
    kept_sum += KeptCapacity(s);
    if (s.capacity > 0) {
      extents.emplace_back(s.offset, s.offset + s.capacity);
    }
    const auto nbrs = Neighbors(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] >= n) {
        return false;
      }
      if (i > 0 && nbrs[i - 1] >= nbrs[i]) {
        return false;  // unsorted or duplicate
      }
    }
  }
  if (degree_sum != live_edges_ || kept_sum != kept_cells_ || arena_used_ > targets_.size() ||
      weights_.size() != targets_.size()) {
    return false;
  }
  // Segments must not overlap (slack cells between them are fine).
  std::sort(extents.begin(), extents.end());
  for (size_t i = 1; i < extents.size(); ++i) {
    if (extents[i].first < extents[i - 1].second) {
      return false;
    }
  }
  return true;
}

}  // namespace graphbolt

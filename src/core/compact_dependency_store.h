// The paper's §4.1 dependency layout, implemented for real memory savings:
//
//   "The aggregation values are maintained as arrays per-vertex to hold
//    values across iterations. ... the aggregation values are maintained
//    contiguously such that if g_i(v) is to be saved because it reflects an
//    updated value compared to g_{i-1}(v), then g_k(v) is also maintained
//    ∀k < i (i.e., holes reflecting no change are eliminated)."
//
// Each vertex owns a contiguous history of its aggregation values from
// level 1 up to the last level at which the value changed; the stabilized
// suffix is never stored (*vertical pruning*), and reads past the end
// return the last stored value. Compared to DependencyStore (dense per-
// level arrays, O(1) cache-friendly access, pruning tracked only as
// accounting), this trades some access locality for a footprint that
// actually shrinks with stabilization — Table 9's memory benchmark reports
// both.
//
// The interface mirrors DependencyStore so GraphBoltEngine can be
// instantiated with either backend.
#ifndef SRC_CORE_COMPACT_DEPENDENCY_STORE_H_
#define SRC_CORE_COMPACT_DEPENDENCY_STORE_H_

#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <type_traits>
#include <vector>

#include "src/engine/vertex_subset.h"
#include "src/graph/types.h"
#include "src/parallel/parallel_for.h"
#include "src/util/bitset.h"
#include "src/util/logging.h"

namespace graphbolt {

template <typename AggregateT>
class CompactDependencyStore {
 public:
  void Reset(VertexId num_vertices, uint32_t history_size) {
    num_vertices_ = num_vertices;
    history_size_ = history_size;
    tracked_levels_ = 0;
    history_.assign(num_vertices, {});
    changed_.clear();
  }

  VertexId num_vertices() const { return num_vertices_; }
  uint32_t history_size() const { return history_size_; }
  uint32_t tracked_levels() const { return tracked_levels_; }
  uint32_t total_levels() const { return static_cast<uint32_t>(changed_.size()); }
  bool IsTracked(uint32_t level) const { return level >= 1 && level <= tracked_levels_; }

  // As DependencyStore::SnapshotLevel: tracked levels stay a prefix.
  void SnapshotLevel(uint32_t level, const std::vector<AggregateT>& aggregates,
                     AtomicBitset changed_bits) {
    GB_CHECK(level == total_levels() + 1) << "levels must be snapshotted in order";
    changed_.push_back(std::move(changed_bits));
    if (level > history_size_ || level != tracked_levels_ + 1) {
      return;  // aggregations not tracked
    }
    GB_CHECK(aggregates.size() == num_vertices_) << "level " << level << " has no aggregates";
    ++tracked_levels_;
    ParallelFor(0, num_vertices_, [&](size_t v) {
      AppendLevel(static_cast<VertexId>(v), level, aggregates[v]);
    }, /*grain=*/512);
  }

  const AggregateT& At(uint32_t level, VertexId v) const {
    GB_CHECK(IsTracked(level)) << "level " << level << " not tracked";
    const auto& h = history_[v];
    GB_CHECK(!h.empty()) << "no history for vertex " << v;
    const size_t index = level <= h.size() ? level - 1 : h.size() - 1;
    return h[index];
  }

  void MaterializeLevel(uint32_t level, const VertexSubset& targets,
                        std::vector<AggregateT>* scratch) {
    if (scratch->size() < num_vertices_) {
      scratch->resize(num_vertices_);
    }
    ParallelFor(0, targets.size(), [&](size_t i) {
      const VertexId v = targets.members()[i];
      (*scratch)[v] = At(level, v);
    }, /*grain=*/512);
  }

  // Writes refined aggregations back, extending a vertex's history (with
  // hole-filling copies, per §4.1) when the refined level lies beyond its
  // pruned tail.
  void CommitLevel(uint32_t level, const VertexSubset& targets,
                   const std::vector<AggregateT>& scratch) {
    GB_CHECK(IsTracked(level)) << "level " << level << " not tracked";
    ParallelFor(0, targets.size(), [&](size_t i) {
      const VertexId v = targets.members()[i];
      CommitOne(level, v, scratch[v]);
    }, /*grain=*/256);
  }

  // Whole-level forms, for refinement levels dense enough to sweep every
  // vertex. The commit writes only the cells whose bits changed: rewriting
  // an unchanged cell could only add entries RepruneTails drops again.
  void MaterializeLevel(uint32_t level, std::vector<AggregateT>* scratch) const {
    GB_CHECK(IsTracked(level)) << "level " << level << " not tracked";
    scratch->resize(num_vertices_);
    ParallelFor(0, num_vertices_, [&](size_t v) {
      (*scratch)[v] = At(level, static_cast<VertexId>(v));
    }, /*grain=*/512);
  }

  void CommitLevel(uint32_t level, const std::vector<AggregateT>& scratch) {
    GB_CHECK(IsTracked(level)) << "level " << level << " not tracked";
    ParallelFor(0, num_vertices_, [&](size_t vi) {
      const VertexId v = static_cast<VertexId>(vi);
      if (std::memcmp(&scratch[v], &At(level, v), sizeof(AggregateT)) != 0) {
        CommitOne(level, v, scratch[v]);
      }
    }, /*grain=*/256);
  }

  // The dense sweeps' access (DependencyStore::LevelCells): the level is
  // materialized into `scratch`, which the sweep refines in place, and
  // AdoptLevel commits the cells whose bits changed, leaving `*scratch`
  // as it is.
  const AggregateT* LevelCells(uint32_t level, std::vector<AggregateT>* scratch) const {
    MaterializeLevel(level, scratch);
    return scratch->data();
  }

  void AdoptLevel(uint32_t level, std::vector<AggregateT>* scratch) { CommitLevel(level, *scratch); }

  // Drops stabilized suffixes re-created by refinement: trailing entries
  // equal to their predecessor carry no information (reads clamp).
  void RepruneTails() {
    ParallelFor(0, num_vertices_, [&](size_t v) {
      auto& h = history_[v];
      while (h.size() > 1 && h[h.size() - 1] == h[h.size() - 2]) {
        h.pop_back();
      }
    }, /*grain=*/256);
  }

  void GrowVertices(VertexId new_count, const AggregateT& identity) {
    if (new_count <= num_vertices_) {
      return;
    }
    history_.resize(new_count);
    if (tracked_levels_ >= 1) {
      for (VertexId v = num_vertices_; v < new_count; ++v) {
        history_[v].push_back(identity);
      }
    }
    for (auto& bits : changed_) {
      bits.Grow(new_count);
    }
    num_vertices_ = new_count;
  }

  void TruncateLevels(uint32_t level) {
    if (changed_.size() > level) {
      changed_.resize(level);
    }
    if (tracked_levels_ > level) {
      tracked_levels_ = level;
      for (auto& h : history_) {
        if (h.size() > level) {
          h.resize(level);
        }
      }
    }
  }

  const AtomicBitset& ChangedAt(uint32_t level) const {
    GB_CHECK(level >= 1 && level <= total_levels()) << "no changed bits for level " << level;
    return changed_[level - 1];
  }

  AtomicBitset& MutableChangedAt(uint32_t level) {
    GB_CHECK(level >= 1 && level <= total_levels()) << "no changed bits for level " << level;
    return changed_[level - 1];
  }

  // Entries actually stored — the real (not just accounted) footprint.
  uint64_t logical_entries() const {
    uint64_t total = 0;
    for (const auto& h : history_) {
      total += h.size();
    }
    return total;
  }

  uint64_t logical_bytes() const {
    return logical_entries() * sizeof(AggregateT) + total_levels() * (num_vertices_ / 8 + 8) +
           num_vertices_ * sizeof(void*) * 3;  // per-vertex vector headers
  }

  // Same as logical_bytes: this backend allocates what it stores.
  uint64_t actual_bytes() const { return logical_bytes(); }

  void SerializeTo(std::ostream& out) const {
    static_assert(std::is_trivially_copyable_v<AggregateT>);
    const uint64_t header[4] = {num_vertices_, history_size_, tracked_levels_, total_levels()};
    out.write(reinterpret_cast<const char*>(header), sizeof(header));
    for (const auto& h : history_) {
      const uint64_t size = h.size();
      out.write(reinterpret_cast<const char*>(&size), sizeof(size));
      out.write(reinterpret_cast<const char*>(h.data()),
                static_cast<std::streamsize>(size * sizeof(AggregateT)));
    }
    for (const auto& bits : changed_) {
      for (size_t w = 0; w < bits.num_words(); ++w) {
        const uint64_t word = bits.LoadWord(w);
        out.write(reinterpret_cast<const char*>(&word), sizeof(word));
      }
    }
  }

  bool DeserializeFrom(std::istream& in) {
    uint64_t header[4] = {};
    in.read(reinterpret_cast<char*>(header), sizeof(header));
    if (!in) {
      return false;
    }
    num_vertices_ = static_cast<VertexId>(header[0]);
    history_size_ = static_cast<uint32_t>(header[1]);
    tracked_levels_ = static_cast<uint32_t>(header[2]);
    const auto total = static_cast<uint32_t>(header[3]);
    history_.assign(num_vertices_, {});
    for (auto& h : history_) {
      uint64_t size = 0;
      in.read(reinterpret_cast<char*>(&size), sizeof(size));
      if (!in || size > tracked_levels_) {
        Reset(0, 0);
        return false;
      }
      h.resize(size);
      in.read(reinterpret_cast<char*>(h.data()),
              static_cast<std::streamsize>(size * sizeof(AggregateT)));
    }
    changed_.clear();
    changed_.reserve(total);
    for (uint32_t l = 0; l < total; ++l) {
      AtomicBitset bits(num_vertices_);
      for (size_t w = 0; w < bits.num_words(); ++w) {
        uint64_t word = 0;
        in.read(reinterpret_cast<char*>(&word), sizeof(word));
        const size_t tail = num_vertices_ - w * 64;  // bits past the last vertex stay clear
        bits.StoreWord(w, tail >= 64 ? word : word & ((1ULL << tail) - 1));
      }
      changed_.push_back(std::move(bits));
    }
    if (!in) {
      Reset(0, 0);
      return false;
    }
    return true;
  }

 private:
  // Writes one refined aggregation back (see CommitLevel).
  void CommitOne(uint32_t level, VertexId v, const AggregateT& value) {
    auto& h = history_[v];
    if (h.size() > level) {
      // Interior write: the suffix beyond `level` is stored explicitly.
      h[level - 1] = value;
      return;
    }
    // The write lands on (or beyond) the last stored entry, which anchors
    // the clamp for every pruned level after it. Those levels were NOT
    // refined here, so the old stable value must be re-materialized as a
    // guard entry right after the refined one — otherwise reads of later
    // levels would see the refined value instead of the truth.
    const AggregateT stable = h.empty() ? value : h.back();
    while (h.size() + 1 < level) {
      h.push_back(stable);  // eliminate holes below the refined level
    }
    if (h.size() == level) {
      h.back() = value;
    } else {
      h.push_back(value);
    }
    if (level < tracked_levels_ && !(value == stable)) {
      h.push_back(stable);
    }
  }

  // Appends level `level`'s value during the initial run, pruning when the
  // value matches the stored tail.
  void AppendLevel(VertexId v, uint32_t level, const AggregateT& value) {
    auto& h = history_[v];
    if (h.empty()) {
      h.push_back(value);
      return;
    }
    if (value == h.back() && h.size() < level) {
      return;  // stabilized: prune
    }
    while (h.size() + 1 < level) {
      h.push_back(h.back());  // eliminate holes
    }
    h.push_back(value);
  }

  VertexId num_vertices_ = 0;
  uint32_t history_size_ = 0;
  uint32_t tracked_levels_ = 0;
  std::vector<std::vector<AggregateT>> history_;  // history_[v][i] = g_{i+1}(v)
  std::vector<AtomicBitset> changed_;
};

}  // namespace graphbolt

#endif  // SRC_CORE_COMPACT_DEPENDENCY_STORE_H_

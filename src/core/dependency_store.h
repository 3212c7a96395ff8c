// The dependency store (§3.2): per-iteration aggregation values g_i(v) plus
// per-iteration changed-vertex bit vectors.
//
// The store is the O(V·t) representation of the dependency graph A_G: only
// aggregation values are kept; the dependency *structure* is re-derived
// from the input graph during refinement. Two pruning mechanisms bound t
// and the per-level population:
//
//  - Horizontal pruning: levels beyond `history_size` are not tracked; the
//    engine switches to hybrid execution there, guided by the changed-bit
//    vectors (which are kept for every level — 1 bit per vertex).
//  - Vertical pruning: once a vertex's aggregation stabilizes (equal to the
//    previous level's), later levels share the previous entry. The dense
//    backing array still holds a copy for O(1) access; `logical_entries()`
//    reports the pruned footprint the paper's Table 9 measures.
#ifndef SRC_CORE_DEPENDENCY_STORE_H_
#define SRC_CORE_DEPENDENCY_STORE_H_

#include <algorithm>
#include <cstdint>
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
class DependencyStore {
 public:
  // Prepares the store for a fresh computation over `num_vertices` vertices
  // tracking at most `history_size` levels of aggregations.
  void Reset(VertexId num_vertices, uint32_t history_size) {
    num_vertices_ = num_vertices;
    history_size_ = history_size;
    levels_.clear();
    changed_.clear();
    logical_entries_ = 0;
  }

  VertexId num_vertices() const { return num_vertices_; }
  uint32_t history_size() const { return history_size_; }

  // Number of levels with stored aggregations (<= history_size).
  uint32_t tracked_levels() const { return static_cast<uint32_t>(levels_.size()); }

  // Number of levels with changed-bit vectors (== iterations executed).
  uint32_t total_levels() const { return static_cast<uint32_t>(changed_.size()); }

  bool IsTracked(uint32_t level) const { return level >= 1 && level <= tracked_levels(); }

  // Records the aggregation array at the end of iteration `level` (1-based),
  // during the initial run or when the hybrid continuation runs past it.
  // Levels must be snapshotted in order. Only the changed bits are kept,
  // and `aggregates` is unread, beyond the history size (horizontal
  // pruning) and after a level whose aggregates were not kept: tracked
  // levels stay a prefix of all levels.
  void SnapshotLevel(uint32_t level, const std::vector<AggregateT>& aggregates,
                     AtomicBitset changed_bits) {
    GB_CHECK(level == total_levels() + 1) << "levels must be snapshotted in order";
    changed_.push_back(std::move(changed_bits));
    if (level > history_size_ || level != tracked_levels() + 1) {
      return;  // aggregations not tracked
    }
    GB_CHECK(aggregates.size() == num_vertices_) << "level " << level << " has no aggregates";
    levels_.push_back(aggregates);
    // Vertical pruning accounting: an entry is logically stored only if it
    // differs from the previous level's entry.
    if (level == 1) {
      logical_entries_ += num_vertices_;
      return;
    }
    const auto& prev = levels_[level - 2];
    const auto& cur = levels_[level - 1];
    uint64_t fresh = 0;
    for (VertexId v = 0; v < num_vertices_; ++v) {
      if (!(cur[v] == prev[v])) {
        ++fresh;
      }
    }
    logical_entries_ += fresh;
  }

  // Extends the store to cover vertices added by a mutation batch. New
  // vertices behave as if they had existed isolated since the start: their
  // aggregation is the identity at every level and they never changed.
  void GrowVertices(VertexId new_count, const AggregateT& identity) {
    if (new_count <= num_vertices_) {
      return;
    }
    for (auto& level : levels_) {
      level.resize(new_count, identity);
    }
    for (auto& bits : changed_) {
      bits.Grow(new_count);
    }
    if (!levels_.empty()) {
      logical_entries_ += new_count - num_vertices_;  // level-1 entries
    }
    num_vertices_ = new_count;
  }

  // Discards changed-bit levels beyond `level` (used when a refined run
  // converges in fewer iterations than the previous one).
  void TruncateLevels(uint32_t level) {
    if (changed_.size() > level) {
      changed_.resize(level);
    }
    if (levels_.size() > level) {
      levels_.resize(level);
    }
  }

  // Mutable access to g_level(v) for refinement. level is 1-based.
  AggregateT& At(uint32_t level, VertexId v) {
    GB_CHECK(IsTracked(level)) << "level " << level << " not tracked";
    return levels_[level - 1][v];
  }

  const AggregateT& At(uint32_t level, VertexId v) const {
    GB_CHECK(IsTracked(level)) << "level " << level << " not tracked";
    return levels_[level - 1][v];
  }

  const std::vector<AggregateT>& LevelArray(uint32_t level) const {
    GB_CHECK(IsTracked(level)) << "level " << level << " not tracked";
    return levels_[level - 1];
  }

  // Copies the current aggregations of `targets` at `level` into `scratch`
  // (resized to cover all vertices; non-target cells are unspecified).
  // Refinement mutates the scratch concurrently and writes it back through
  // CommitLevel — the storage-backend-independent access pattern that lets
  // the engine run on either this dense store or the compact per-vertex
  // store.
  void MaterializeLevel(uint32_t level, const VertexSubset& targets,
                        std::vector<AggregateT>* scratch) {
    GB_CHECK(IsTracked(level)) << "level " << level << " not tracked";
    const auto& source = levels_[level - 1];
    if (scratch->size() < source.size()) {
      scratch->resize(source.size());
    }
    ParallelFor(0, targets.size(), [&](size_t i) {
      const VertexId v = targets.members()[i];
      (*scratch)[v] = source[v];
    }, /*grain=*/512);
  }

  // Writes the refined aggregations of `targets` back into the store.
  void CommitLevel(uint32_t level, const VertexSubset& targets,
                   const std::vector<AggregateT>& scratch) {
    GB_CHECK(IsTracked(level)) << "level " << level << " not tracked";
    auto& destination = levels_[level - 1];
    ParallelFor(0, targets.size(), [&](size_t i) {
      const VertexId v = targets.members()[i];
      destination[v] = scratch[v];
    }, /*grain=*/512);
  }

  // Whole-level forms of the pair above, for refinement levels dense enough
  // to sweep every vertex: the scratch receives (and returns) all cells.
  void MaterializeLevel(uint32_t level, std::vector<AggregateT>* scratch) const {
    GB_CHECK(IsTracked(level)) << "level " << level << " not tracked";
    *scratch = levels_[level - 1];
  }

  void CommitLevel(uint32_t level, const std::vector<AggregateT>& scratch) {
    GB_CHECK(IsTracked(level)) << "level " << level << " not tracked";
    auto& destination = levels_[level - 1];
    std::copy_n(scratch.begin(), destination.size(), destination.begin());
  }

  // The dense sweeps of weight-free refinement read a level's cells through
  // one pointer and write every refined cell into a scratch that then
  // becomes the level. Here the pointer is the level's own array, so
  // `scratch` is unused; AdoptLevel swaps the refined cells in and leaves
  // the level's previous cells in `*scratch`.
  const AggregateT* LevelCells(uint32_t level, std::vector<AggregateT>* /*scratch*/) const {
    GB_CHECK(IsTracked(level)) << "level " << level << " not tracked";
    return levels_[level - 1].data();
  }

  void AdoptLevel(uint32_t level, std::vector<AggregateT>* scratch) {
    GB_CHECK(IsTracked(level)) << "level " << level << " not tracked";
    GB_CHECK(scratch->size() == num_vertices_) << "level " << level << " needs every cell";
    levels_[level - 1].swap(*scratch);
  }

  // Storage compaction hook, run after each refined batch (no-op for the
  // dense store; the compact store drops stabilized suffixes here).
  void RepruneTails() {}

  // Changed-vertex bits for iteration `level` (1-based): bit v set iff
  // c_level(v) differed from c_{level-1}(v).
  const AtomicBitset& ChangedAt(uint32_t level) const {
    GB_CHECK(level >= 1 && level <= total_levels()) << "no changed bits for level " << level;
    return changed_[level - 1];
  }

  AtomicBitset& MutableChangedAt(uint32_t level) {
    GB_CHECK(level >= 1 && level <= total_levels()) << "no changed bits for level " << level;
    return changed_[level - 1];
  }

  // Logical number of stored aggregation entries after vertical pruning.
  uint64_t logical_entries() const { return logical_entries_; }

  // Logical dependency-store footprint in bytes: pruned aggregation entries
  // plus the changed-bit vectors. This is what vertical pruning *could*
  // save; the dense backend still allocates full levels (actual_bytes),
  // while CompactDependencyStore realizes the savings.
  uint64_t logical_bytes() const {
    return logical_entries_ * sizeof(AggregateT) + total_levels() * (num_vertices_ / 8 + 8);
  }

  // Bytes this dense backend actually allocates for dependency state.
  uint64_t actual_bytes() const {
    return static_cast<uint64_t>(tracked_levels()) * num_vertices_ * sizeof(AggregateT) +
           total_levels() * (num_vertices_ / 8 + 8);
  }

  // Binary (de)serialization. Aggregates are written raw, so the format is
  // only portable across builds with identical Aggregate layout.
  void SerializeTo(std::ostream& out) const {
    static_assert(std::is_trivially_copyable_v<AggregateT>);
    const uint64_t header[4] = {num_vertices_, history_size_, tracked_levels(), total_levels()};
    out.write(reinterpret_cast<const char*>(header), sizeof(header));
    for (const auto& level : levels_) {
      out.write(reinterpret_cast<const char*>(level.data()),
                static_cast<std::streamsize>(level.size() * sizeof(AggregateT)));
    }
    for (const auto& bits : changed_) {
      for (size_t w = 0; w < bits.num_words(); ++w) {
        const uint64_t word = bits.LoadWord(w);
        out.write(reinterpret_cast<const char*>(&word), sizeof(word));
      }
    }
    out.write(reinterpret_cast<const char*>(&logical_entries_), sizeof(logical_entries_));
  }

  // Returns false (leaving the store reset) on malformed input.
  bool DeserializeFrom(std::istream& in) {
    uint64_t header[4] = {};
    in.read(reinterpret_cast<char*>(header), sizeof(header));
    if (!in) {
      return false;
    }
    num_vertices_ = static_cast<VertexId>(header[0]);
    history_size_ = static_cast<uint32_t>(header[1]);
    const auto tracked = static_cast<uint32_t>(header[2]);
    const auto total = static_cast<uint32_t>(header[3]);
    levels_.assign(tracked, std::vector<AggregateT>(num_vertices_));
    for (auto& level : levels_) {
      in.read(reinterpret_cast<char*>(level.data()),
              static_cast<std::streamsize>(level.size() * sizeof(AggregateT)));
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
    in.read(reinterpret_cast<char*>(&logical_entries_), sizeof(logical_entries_));
    if (!in) {
      Reset(0, 0);
      return false;
    }
    return true;
  }

 private:
  VertexId num_vertices_ = 0;
  uint32_t history_size_ = 0;
  std::vector<std::vector<AggregateT>> levels_;  // levels_[i] = g_{i+1}
  std::vector<AtomicBitset> changed_;            // changed_[i] = bits of level i+1
  uint64_t logical_entries_ = 0;
};

}  // namespace graphbolt

#endif  // SRC_CORE_DEPENDENCY_STORE_H_

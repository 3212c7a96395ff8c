// Direct (de)serialization tests for both dependency-store backends, plus
// cross-checks of their accounting, plus format lock-in for the on-disk
// checkpoint envelope (magic/version/footer offsets and clean rejection of
// corrupt files — never UB, never a half-clobbered engine).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "src/algorithms/pagerank.h"
#include "src/core/compact_dependency_store.h"
#include "src/core/dependency_store.h"
#include "src/engine/reset_engine.h"
#include "src/fault/checkpoint.h"
#include "src/fault/wal.h"
#include "src/graph/generators.h"
#include "src/graph/mutable_graph.h"
#include "tests/test_util.h"

namespace graphbolt {
namespace {

template <typename Store>
Store MakePopulatedStore() {
  Store store;
  store.Reset(5, 8);
  AtomicBitset bits1(5);
  bits1.Set(0);
  bits1.Set(3);
  store.SnapshotLevel(1, {1, 2, 3, 4, 5}, std::move(bits1));
  AtomicBitset bits2(5);
  bits2.Set(2);
  store.SnapshotLevel(2, {1, 2, 9, 4, 5}, std::move(bits2));
  store.SnapshotLevel(3, {1, 2, 9, 4, 7}, AtomicBitset(5));
  return store;
}

template <typename Store>
void ExpectStoresEqual(const Store& a, const Store& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.tracked_levels(), b.tracked_levels());
  ASSERT_EQ(a.total_levels(), b.total_levels());
  for (uint32_t level = 1; level <= a.tracked_levels(); ++level) {
    for (VertexId v = 0; v < a.num_vertices(); ++v) {
      EXPECT_DOUBLE_EQ(a.At(level, v), b.At(level, v)) << "level " << level << " v " << v;
    }
  }
  for (uint32_t level = 1; level <= a.total_levels(); ++level) {
    for (VertexId v = 0; v < a.num_vertices(); ++v) {
      EXPECT_EQ(a.ChangedAt(level).Test(v), b.ChangedAt(level).Test(v))
          << "level " << level << " v " << v;
    }
  }
}

TEST(DenseStoreSerialization, RoundTrip) {
  auto store = MakePopulatedStore<DependencyStore<double>>();
  std::stringstream buffer;
  store.SerializeTo(buffer);
  DependencyStore<double> loaded;
  ASSERT_TRUE(loaded.DeserializeFrom(buffer));
  ExpectStoresEqual(store, loaded);
}

TEST(DenseStoreSerialization, RejectsTruncated) {
  auto store = MakePopulatedStore<DependencyStore<double>>();
  std::stringstream buffer;
  store.SerializeTo(buffer);
  const std::string bytes = buffer.str();
  std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
  DependencyStore<double> loaded;
  EXPECT_FALSE(loaded.DeserializeFrom(truncated));
}

TEST(CompactStoreSerialization, RoundTripPreservesPruning) {
  auto store = MakePopulatedStore<CompactDependencyStore<double>>();
  const uint64_t entries_before = store.logical_entries();
  std::stringstream buffer;
  store.SerializeTo(buffer);
  CompactDependencyStore<double> loaded;
  ASSERT_TRUE(loaded.DeserializeFrom(buffer));
  ExpectStoresEqual(store, loaded);
  EXPECT_EQ(loaded.logical_entries(), entries_before);
}

TEST(CompactStoreSerialization, RejectsGarbage) {
  std::stringstream garbage("certainly not a store");
  CompactDependencyStore<double> loaded;
  EXPECT_FALSE(loaded.DeserializeFrom(garbage));
}

TEST(StoreAccounting, CompactStoresFewerEntriesThanDenseAllocates) {
  auto dense = MakePopulatedStore<DependencyStore<double>>();
  auto compact = MakePopulatedStore<CompactDependencyStore<double>>();
  // Dense allocates V*t entries; compact stores only changing prefixes.
  const uint64_t dense_alloc = 5ull * dense.tracked_levels();
  EXPECT_LT(compact.logical_entries(), dense_alloc);
  // Compact may exceed the dense store's *accounting* slightly: §4.1's
  // hole-elimination re-materializes stable values below a late change,
  // which the accounting-only view does not count.
  EXPECT_GE(compact.logical_entries(), dense.logical_entries());
}

TEST(StoreAccounting, TruncateLevelsDropsState) {
  auto dense = MakePopulatedStore<DependencyStore<double>>();
  dense.TruncateLevels(1);
  EXPECT_EQ(dense.tracked_levels(), 1u);
  EXPECT_EQ(dense.total_levels(), 1u);
  auto compact = MakePopulatedStore<CompactDependencyStore<double>>();
  compact.TruncateLevels(1);
  EXPECT_EQ(compact.tracked_levels(), 1u);
  EXPECT_DOUBLE_EQ(compact.At(1, 2), 3.0);
}

// ----- Checkpoint envelope format lock-in ------------------------------------

using CkptEngine = ResetEngine<PageRank>;
using Ckpt = Checkpointer<CkptEngine>;

// Writes one real checkpoint and returns its path.
std::string WriteOneCheckpoint(const ScopedTempDir& tmp, MutableGraph* graph,
                               CkptEngine* engine, uint64_t seq = 7) {
  engine->InitialCompute();
  Ckpt checkpointer(engine, graph, {.directory = tmp.path()});
  EXPECT_TRUE(checkpointer.WriteCheckpoint(seq));
  for (const auto& entry : std::filesystem::directory_iterator(tmp.path())) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 5 && name.substr(name.size() - 5) == ".ckpt") {
      return entry.path().string();
    }
  }
  ADD_FAILURE() << "no .ckpt file written";
  return {};
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void Dump(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// The golden layout: u64 magic @0, u32 version @8, u64 seq @12, then the
// graph snapshot, engine payload, and a u64 footer at the tail. Any change
// to these offsets is a format break and must bump kCheckpointVersion.
TEST(CheckpointFormat, GoldenHeaderAndFooterOffsets) {
  ScopedTempDir tmp;
  MutableGraph graph(GenerateRmat(60, 300, {.seed = 5}));
  CkptEngine engine(&graph, PageRank{});
  const std::string path = WriteOneCheckpoint(tmp, &graph, &engine, /*seq=*/7);
  const std::string bytes = Slurp(path);
  ASSERT_GE(bytes.size(), 28u);

  uint64_t magic = 0;
  uint32_t version = 0;
  uint64_t seq = 0;
  uint64_t footer = 0;
  std::memcpy(&magic, bytes.data(), sizeof(magic));
  std::memcpy(&version, bytes.data() + 8, sizeof(version));
  std::memcpy(&seq, bytes.data() + 12, sizeof(seq));
  std::memcpy(&footer, bytes.data() + bytes.size() - sizeof(footer), sizeof(footer));
  EXPECT_EQ(magic, kCheckpointMagic);    // "GBCKPT01"
  EXPECT_EQ(version, kCheckpointVersion);
  EXPECT_EQ(seq, 7u);
  EXPECT_EQ(footer, kCheckpointFooter);  // "GBCKEND1"
}

TEST(CheckpointFormat, RoundTripRestoresSeqGraphAndValues) {
  ScopedTempDir tmp;
  MutableGraph graph(GenerateRmat(60, 300, {.seed = 5}));
  CkptEngine engine(&graph, PageRank{});
  WriteOneCheckpoint(tmp, &graph, &engine, /*seq=*/42);
  const auto want_edges = graph.ToEdgeList().edges();
  const auto want_values = engine.values();

  MutableGraph cold_graph;
  CkptEngine cold_engine(&cold_graph, PageRank{});
  Ckpt restorer(&cold_engine, &cold_graph, {.directory = tmp.path()});
  uint64_t seq = 0;
  ASSERT_TRUE(restorer.RestoreLatest(&seq));
  EXPECT_EQ(seq, 42u);
  EXPECT_EQ(cold_graph.ToEdgeList().edges(), want_edges);
  EXPECT_EQ(cold_engine.values(), want_values);
}

// Corrupt-file matrix: each corruption must be rejected cleanly (false +
// warning), leaving the restoring engine's state untouched.
TEST(CheckpointFormat, RejectsWrongMagicWrongVersionAndTruncation) {
  ScopedTempDir tmp;
  MutableGraph graph(GenerateRmat(60, 300, {.seed = 5}));
  CkptEngine engine(&graph, PageRank{});
  const std::string path = WriteOneCheckpoint(tmp, &graph, &engine);
  const std::string good = Slurp(path);

  MutableGraph cold_graph;
  CkptEngine cold_engine(&cold_graph, PageRank{});
  Ckpt restorer(&cold_engine, &cold_graph, {.directory = tmp.path()});
  uint64_t seq = 0;

  std::string bad_magic = good;
  bad_magic[0] ^= 0x5a;
  Dump(path, bad_magic);
  EXPECT_FALSE(restorer.RestoreLatest(&seq));

  std::string bad_version = good;
  bad_version[8] = static_cast<char>(kCheckpointVersion + 1);  // future format
  Dump(path, bad_version);
  EXPECT_FALSE(restorer.RestoreLatest(&seq));

  // Truncation sweep: every prefix must be rejected, including cuts inside
  // the header, the edge payload, the engine payload, and the footer.
  for (const size_t keep : {size_t{0}, size_t{11}, size_t{27}, good.size() / 3,
                            good.size() / 2, good.size() - 3}) {
    Dump(path, good.substr(0, keep));
    EXPECT_FALSE(restorer.RestoreLatest(&seq)) << "accepted " << keep << " bytes";
  }
  EXPECT_TRUE(cold_graph.num_vertices() == 0) << "rejected restore touched the graph";

  // The uncorrupted bytes still restore (the reject paths had no side
  // effects on the file handling either).
  Dump(path, good);
  EXPECT_TRUE(restorer.RestoreLatest(&seq));
}

// A torn newest checkpoint must fall back to the previous intact one.
TEST(CheckpointFormat, TornNewestFallsBackToOlder) {
  ScopedTempDir tmp;
  MutableGraph graph(GenerateRmat(60, 300, {.seed = 5}));
  CkptEngine engine(&graph, PageRank{});
  engine.InitialCompute();
  Ckpt checkpointer(&engine, &graph, {.directory = tmp.path(), .keep = 2});
  ASSERT_TRUE(checkpointer.WriteCheckpoint(3));
  ASSERT_TRUE(checkpointer.WriteCheckpoint(6));
  // Tear the newest (seq 6) file.
  std::string newest;
  for (const auto& entry : std::filesystem::directory_iterator(tmp.path())) {
    const std::string p = entry.path().string();
    if (p.size() > 5 && p.substr(p.size() - 5) == ".ckpt" && (newest.empty() || p > newest)) {
      newest = p;
    }
  }
  const std::string bytes = Slurp(newest);
  Dump(newest, bytes.substr(0, bytes.size() / 3));

  MutableGraph cold_graph;
  CkptEngine cold_engine(&cold_graph, PageRank{});
  Ckpt restorer(&cold_engine, &cold_graph, {.directory = tmp.path(), .keep = 2});
  uint64_t seq = 0;
  ASSERT_TRUE(restorer.RestoreLatest(&seq));
  EXPECT_EQ(seq, 3u);  // fell back past the torn seq-6 file
}

// A version-1 file (no section checksums) is no longer a checkpoint: its
// version fails the envelope check, and RestoreLatest skips it like any
// corrupt file. This test assembles one byte-by-byte from that layout:
// beside an older valid checkpoint the older one restores, and alone there
// is nothing to restore.
TEST(CheckpointFormat, VersionOneBytesAreRejectedAndSkipped) {
  ScopedTempDir tmp;
  MutableGraph graph(GenerateRmat(60, 300, {.seed = 5}));
  CkptEngine engine(&graph, PageRank{});
  engine.InitialCompute();

  std::ostringstream engine_bytes;
  ASSERT_TRUE(engine.SaveStateTo(engine_bytes));
  const EdgeList snapshot = graph.ToEdgeList();

  // The version-1 envelope: u64 magic, u32 version, u64 seq, u64 V, u64 E,
  // packed Edge structs, engine payload, u64 footer.
  std::ostringstream file;
  auto put = [&file](const auto& v) {
    file.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(kCheckpointMagic);
  put(uint32_t{1});
  put(uint64_t{13});
  put(static_cast<uint64_t>(snapshot.num_vertices()));
  put(static_cast<uint64_t>(snapshot.num_edges()));
  file.write(reinterpret_cast<const char*>(snapshot.edges().data()),
             static_cast<std::streamsize>(snapshot.edges().size() * sizeof(Edge)));
  const std::string payload = engine_bytes.str();
  file.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  put(kCheckpointFooter);
  const CheckpointInspection inspection = InspectCheckpointBytes(file.str());
  EXPECT_FALSE(inspection.valid);
  EXPECT_EQ(inspection.error, "format version 1 unsupported");
  const std::string v1_path = tmp.File("checkpoint-00000000000000000013.ckpt");
  Dump(v1_path, file.str());

  {
    MutableGraph cold_graph;
    CkptEngine cold_engine(&cold_graph, PageRank{});
    Ckpt restorer(&cold_engine, &cold_graph, {.directory = tmp.path()});
    uint64_t seq = 0;
    EXPECT_FALSE(restorer.RestoreLatest(&seq));
  }

  Ckpt checkpointer(&engine, &graph, {.directory = tmp.path(), .keep = 2});
  ASSERT_TRUE(checkpointer.WriteCheckpoint(7));
  ASSERT_TRUE(std::filesystem::exists(v1_path));
  MutableGraph cold_graph;
  CkptEngine cold_engine(&cold_graph, PageRank{});
  Ckpt restorer(&cold_engine, &cold_graph, {.directory = tmp.path()});
  uint64_t seq = 0;
  ASSERT_TRUE(restorer.RestoreLatest(&seq));
  EXPECT_EQ(seq, 7u);
  EXPECT_EQ(cold_graph.ToEdgeList().edges(), snapshot.edges());
  EXPECT_EQ(cold_engine.values(), engine.values());
}

// ----- WAL record format -----------------------------------------------------

TEST(WalFormat, TornTailIsToleratedAndReplayStopsCleanly) {
  ScopedTempDir tmp;
  const std::string path = tmp.File("journal.wal");
  WriteAheadLog wal(path);
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    MutationBatch batch;
    batch.push_back(EdgeMutation::Add(static_cast<VertexId>(seq), 9));
    ASSERT_TRUE(wal.Append(seq, batch));
  }
  // Tear mid-way through the last record.
  const std::string bytes = Slurp(path);
  Dump(path, bytes.substr(0, bytes.size() - sizeof(EdgeMutation) / 2));

  WriteAheadLog torn(path);
  uint64_t last_seq = 0;
  size_t delivered = torn.Replay(0, [&](uint64_t seq, MutationBatch&& batch) {
    last_seq = seq;
    EXPECT_EQ(batch.size(), 1u);
  });
  EXPECT_EQ(delivered, 2u);  // the intact prefix
  EXPECT_EQ(last_seq, 2u);
}

TEST(WalFormat, DropThroughCompactsPrefixKeepsTail) {
  ScopedTempDir tmp;
  const std::string path = tmp.File("journal.wal");
  WriteAheadLog wal(path);
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    MutationBatch batch;
    batch.push_back(EdgeMutation::Add(static_cast<VertexId>(seq), 9));
    ASSERT_TRUE(wal.Append(seq, batch));
  }
  ASSERT_TRUE(wal.DropThrough(3));
  std::vector<uint64_t> seqs;
  wal.Replay(0, [&](uint64_t seq, MutationBatch&&) { seqs.push_back(seq); });
  EXPECT_EQ(seqs, (std::vector<uint64_t>{4, 5}));
  // The compacted log still appends.
  MutationBatch batch;
  batch.push_back(EdgeMutation::Add(6, 9));
  ASSERT_TRUE(wal.Append(6, batch));
  seqs.clear();
  wal.Replay(0, [&](uint64_t seq, MutationBatch&&) { seqs.push_back(seq); });
  EXPECT_EQ(seqs, (std::vector<uint64_t>{4, 5, 6}));
}

}  // namespace
}  // namespace graphbolt

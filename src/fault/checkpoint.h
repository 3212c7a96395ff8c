// Checkpoint/recovery for streaming engines.
//
// A Checkpointer owns a checkpoint directory holding three kinds of files:
//
//   checkpoint-<seq>.ckpt   full engine state as of applied batch <seq>,
//                           written to a .tmp sibling and renamed into
//                           place, so a crash mid-write never corrupts a
//                           committed checkpoint (rename-on-commit);
//   journal.wal             write-ahead log of applied batches (appended by
//                           the driver immediately before each apply — see
//                           wal.h for the ordering invariant);
//   shed.wal                batches parked by the kShedToWal overflow
//                           policy or by flushes against a crashed worker,
//                           replayed at the next query barrier or recovery.
//
// Checkpoint format (offsets fixed by the golden-layout tests):
//
//   @0   u64 magic "GBCKPT01"
//   @8   u32 version = 2
//   @12  u64 seq
//   @20  u64 num_vertices
//   @28  u64 num_edges
//   @36  u32 masked crc32c over bytes [0, 36)          (header section)
//   @40  num_edges * Edge (raw)
//        u32 masked crc32c over the edge bytes          (graph section)
//        u64 engine payload length
//        engine payload (SaveStateTo)
//        u32 masked crc32c over the engine payload      (engine section)
//   tail u64 footer "GBCKEND1"
//
// The reader validates the full checksum chain before touching live
// state. A file with any other version or any failing section is rejected
// exactly like a torn one, and RestoreLatest falls back down the keep-N
// chain; corruption is never silently replayed.
//
// Durability policy on write failure: retry with exponential backoff
// (RetryPolicy) for transient faults; ENOSPC is fatal-fast — a full disk
// does not get better inside a backoff window, so the write is abandoned
// immediately with an actionable error and a counter (the previous
// checkpoint plus the WAL still covers the state). A WAL append that
// exhausts its budget makes the driver force an immediate checkpoint,
// which supersedes the lost record.
//
// All file I/O flows through a StorageEnv (storage_env.h) so tests can
// make the disk misbehave deterministically.
#ifndef SRC_FAULT_CHECKPOINT_H_
#define SRC_FAULT_CHECKPOINT_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/streaming_engine.h"
#include "src/engine/stats.h"
#include "src/fault/fault_injector.h"
#include "src/fault/storage_env.h"
#include "src/fault/wal.h"
#include "src/graph/edge_list.h"
#include "src/graph/mutable_graph.h"
#include "src/util/crc32c.h"
#include "src/util/logging.h"
#include "src/util/timer.h"

namespace graphbolt {

// Retry-with-backoff policy for the durable write paths. The backoff is
// capped at max_backoff_seconds and jittered (see util/timer.h), so a
// deep retry chain can neither wedge the worker unboundedly nor
// synchronize concurrent retriers.
struct RetryPolicy {
  int max_attempts = 3;
  double initial_backoff_seconds = 1e-4;
  double backoff_multiplier = 2.0;
  double max_backoff_seconds = 0.25;
};

// On-disk checkpoint format constants, public so format tests can corrupt
// files at known offsets.
inline constexpr uint64_t kCheckpointMagic = 0x313054504B434247ULL;   // "GBCKPT01"
inline constexpr uint64_t kCheckpointFooter = 0x31444E454B434247ULL;  // "GBCKEND1"
inline constexpr uint32_t kCheckpointVersion = 2;

// Engine-agnostic verdict on a checkpoint file's raw bytes. Shared by the
// runtime loader, the background scrub, and offline fsck, so "what fsck
// flags" and "what the runtime rejects" are one predicate by construction.
struct CheckpointInspection {
  bool valid = false;
  uint64_t seq = 0;
  uint64_t num_vertices = 0;
  uint64_t num_edges = 0;
  size_t edges_offset = 0;   // offset of the raw Edge payload
  size_t engine_offset = 0;  // offset of the engine payload
  size_t engine_bytes = 0;
  std::string error;         // first failed check, for logs
};

inline CheckpointInspection InspectCheckpointBytes(const std::string& bytes) {
  CheckpointInspection out;
  constexpr size_t kFixedHeaderBytes =
      sizeof(kCheckpointMagic) + sizeof(kCheckpointVersion) + 3 * sizeof(uint64_t);
  constexpr size_t kFooterBytes = sizeof(kCheckpointFooter);
  auto fail = [&out](std::string why) {
    out.error = std::move(why);
    return out;
  };
  if (bytes.size() < kFixedHeaderBytes + kFooterBytes) {
    return fail("truncated (" + std::to_string(bytes.size()) + " bytes)");
  }
  uint64_t magic = 0;
  uint32_t version = 0;
  std::memcpy(&magic, bytes.data(), sizeof(magic));
  std::memcpy(&version, bytes.data() + 8, sizeof(version));
  std::memcpy(&out.seq, bytes.data() + 12, sizeof(out.seq));
  std::memcpy(&out.num_vertices, bytes.data() + 20, sizeof(out.num_vertices));
  std::memcpy(&out.num_edges, bytes.data() + 28, sizeof(out.num_edges));
  if (magic != kCheckpointMagic) {
    return fail("bad magic");
  }
  if (version != kCheckpointVersion) {
    return fail("format version " + std::to_string(version) + " unsupported");
  }
  uint64_t footer = 0;
  std::memcpy(&footer, bytes.data() + bytes.size() - kFooterBytes, kFooterBytes);
  if (footer != kCheckpointFooter) {
    return fail("bad footer (torn write)");
  }
  const size_t edge_bytes =
      static_cast<size_t>(out.num_edges) * sizeof(Edge);
  // Verify the checksum chain section by section.
  if (bytes.size() < kFixedHeaderBytes + sizeof(uint32_t) + kFooterBytes) {
    return fail("truncated before header checksum");
  }
  uint32_t stored = 0;
  std::memcpy(&stored, bytes.data() + kFixedHeaderBytes, sizeof(stored));
  if (MaskCrc(Crc32c(bytes.data(), kFixedHeaderBytes)) != stored) {
    return fail("header checksum mismatch");
  }
  out.edges_offset = kFixedHeaderBytes + sizeof(uint32_t);
  size_t cursor = out.edges_offset;
  if (bytes.size() - cursor < edge_bytes + sizeof(uint32_t) + sizeof(uint64_t)) {
    return fail("short edge payload");
  }
  std::memcpy(&stored, bytes.data() + cursor + edge_bytes, sizeof(stored));
  if (MaskCrc(Crc32c(bytes.data() + cursor, edge_bytes)) != stored) {
    return fail("graph section checksum mismatch");
  }
  cursor += edge_bytes + sizeof(uint32_t);
  uint64_t engine_len = 0;
  std::memcpy(&engine_len, bytes.data() + cursor, sizeof(engine_len));
  cursor += sizeof(engine_len);
  if (bytes.size() - cursor < engine_len ||
      bytes.size() - cursor - engine_len != sizeof(uint32_t) + kFooterBytes) {
    return fail("engine payload length inconsistent with file size");
  }
  std::memcpy(&stored, bytes.data() + cursor + engine_len, sizeof(stored));
  if (MaskCrc(Crc32c(bytes.data() + cursor, engine_len)) != stored) {
    return fail("engine section checksum mismatch");
  }
  out.engine_offset = cursor;
  out.engine_bytes = engine_len;
  out.valid = true;
  return out;
}

// Result of one Scrub() pass over a directory's durability artifacts.
struct ScrubResult {
  uint64_t artifacts_checked = 0;
  uint64_t corruptions = 0;   // artifacts the runtime would reject
  uint64_t quarantined = 0;   // demoted (.quarantined) or healed in place
};

template <typename Engine>
class Checkpointer {
 public:
  struct Options {
    std::string directory;
    // Write a checkpoint every N applied batches (0 = only explicit
    // CheckpointNow / post-recovery checkpoints).
    uint64_t cadence_batches = 16;
    // Checkpoint files retained; older ones are pruned after each commit.
    // Keeping >1 is what makes torn-newest fallback possible.
    int keep = 2;
    RetryPolicy retry = {};
    // Storage seam; null means the real filesystem.
    StorageEnv* env = nullptr;
  };

  Checkpointer(Engine* engine, MutableGraph* graph, Options options,
               FaultInjector* injector = nullptr)
      : engine_(engine), graph_(graph), options_(std::move(options)), injector_(injector) {
    GB_CHECK(!options_.directory.empty()) << "Checkpointer needs a directory";
    GB_CHECK(options_.keep >= 1) << "Checkpointer must keep at least one checkpoint";
    env_ = options_.env ? options_.env : StorageEnv::Default();
    env_->CreateDirectories(options_.directory);
    wal_.Open(options_.directory + "/journal.wal", env_);
    shed_.Open(options_.directory + "/shed.wal", env_);
  }

  Checkpointer(const Checkpointer&) = delete;
  Checkpointer& operator=(const Checkpointer&) = delete;

  const std::string& directory() const { return options_.directory; }
  const Options& options() const { return options_; }
  StorageEnv* env() const { return env_; }

  // ----- Write-ahead log (caller serializes, i.e. the driver's engine_mu_) --

  // Journals one applied batch, retrying with backoff on transient failure.
  // ENOSPC aborts immediately (see file header). Returns false once the
  // retry budget is exhausted or the fatal-fast path fired (caller should
  // force a checkpoint to supersede the missing record).
  bool AppendWal(uint64_t seq, const MutationBatch& batch) {
    const bool appended = WithRetries(
        &Stats::wal_retries, wal_.path(), seq,
        "the driver will force a checkpoint to cover the lost record",
        [&](StorageStatus* status) {
          if (GB_FAULT_POINT(injector_, FaultSite::kWalAppend)) {
            return false;  // injected transient failure; status stays ok
          }
          if (wal_.Append(seq, batch)) {
            return true;
          }
          *status = wal_.last_status();
          return false;
        });
    if (appended) {
      Count(&Stats::wal_appends);
    }
    return appended;
  }

  // Replays journal records with seq > after_seq through
  // fn(seq, MutationBatch&&). max_records bounds the replay (tests use it
  // to simulate a crash mid-recovery). When the scan stops at a torn or
  // corrupt record, the file is healed — truncated back to the last valid
  // record — so post-recovery appends extend a verifiable lineage instead
  // of landing unreachable behind garbage.
  template <typename Fn>
  size_t ReplayWal(uint64_t after_seq, Fn&& fn,
                   size_t max_records = static_cast<size_t>(-1)) {
    WalScanInfo info;
    const size_t delivered =
        wal_.Replay(after_seq, std::forward<Fn>(fn), max_records, &info);
    if (!info.clean() && max_records == static_cast<size_t>(-1)) {
      Count(&Stats::wal_corrupt_records);
      wal_.Heal();
    }
    return delivered;
  }

  // ----- Shed log (self-synchronized; producers append, barriers drain) ----

  // Parks a batch that could not be queued. Shed batches lose their place
  // in the stream order — they re-enter at the next barrier or recovery —
  // which is the documented semantic of the kShedToWal policy.
  bool AppendShed(const MutationBatch& batch) {
    std::lock_guard<std::mutex> lock(shed_mu_);
    return shed_.Append(++shed_seq_, batch);
  }

  // Feeds every parked batch through fn(MutationBatch&&) and truncates the
  // shed log. The caller must hold the engine lock if fn applies batches;
  // shed_mu_ keeps concurrent producers' AppendShed calls out of the drain.
  template <typename Fn>
  size_t DrainShed(Fn&& fn) {
    std::lock_guard<std::mutex> lock(shed_mu_);
    const size_t drained =
        shed_.Replay(0, [&](uint64_t /*seq*/, MutationBatch&& batch) { fn(std::move(batch)); });
    shed_.Reset();
    shed_seq_ = 0;
    return drained;
  }

  // ----- Checkpoints --------------------------------------------------------

  // Cadence gate: writes a checkpoint once `seq` is a full cadence past the
  // last checkpoint written or restored, or when forced (lost WAL record).
  // Measuring from the last checkpoint rather than testing `seq % cadence`
  // keeps the cadence when sequence numbers are consumed without reaching
  // this gate (fast-path splices, async applies). Returns false only when
  // a write was attempted and failed.
  bool MaybeCheckpoint(uint64_t seq, bool force = false) {
    const bool due = force || (options_.cadence_batches > 0 &&
                               seq >= last_checkpoint_seq_ + options_.cadence_batches);
    if (!due) {
      return true;
    }
    return WriteCheckpoint(seq);
  }

  // Snapshots graph + engine state as of applied batch `seq`, with
  // rename-on-commit, retry-with-backoff (ENOSPC fatal-fast), retention
  // pruning, and WAL compaction (records at or before the oldest retained
  // checkpoint are dropped). A failed attempt still restarts the cadence,
  // so a failing disk is retried once per cadence, not on every batch.
  bool WriteCheckpoint(uint64_t seq) {
    static_assert(CheckpointableEngine<Engine>,
                  "checkpointing requires Engine::SaveStateTo/LoadStateFrom");
    last_checkpoint_seq_ = seq;
    Timer timer;
    const std::string final_path = PathFor(seq);
    const std::string tmp_path = final_path + ".tmp";
    const bool written = WithRetries(
        &Stats::checkpoint_retries, final_path, seq,
        "the previous checkpoint plus the WAL still cover the state",
        [&](StorageStatus* status) { return WriteCheckpointFile(tmp_path, seq, status); });
    if (!written || !env_->Rename(tmp_path, final_path).ok()) {
      env_->Remove(tmp_path);
      Count(&Stats::checkpoint_failures);
      GB_LOG(kWarning) << "checkpoint " << final_path << " abandoned";
      return false;
    }
    if (GB_FAULT_POINT(injector_, FaultSite::kTornCheckpoint)) {
      // Simulate a torn committed file (e.g. power loss before the data
      // reached the platter): truncate to a third of its size. Recovery
      // must detect this and fall back to the previous checkpoint.
      const int64_t size = env_->FileSize(final_path);
      if (size > 0) {
        env_->Truncate(final_path, static_cast<uint64_t>(size) / 3);
      }
      GB_LOG(kWarning) << "FaultInjector: tore checkpoint " << final_path;
    }
    Prune();
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.checkpoints_written;
      stats_.checkpoint_seconds += timer.Seconds();
    }
    return true;
  }

  // Restores the newest valid checkpoint into *graph_ and *engine_. Invalid
  // files (torn, truncated, wrong magic/version, failed checksum) are
  // skipped with a warning — validation happens on the raw bytes before
  // live state is touched. Returns false when no valid checkpoint exists.
  bool RestoreLatest(uint64_t* seq_out) {
    static_assert(CheckpointableEngine<Engine>,
                  "checkpointing requires Engine::SaveStateTo/LoadStateFrom");
    std::vector<std::pair<uint64_t, std::string>> files = ListCheckpoints();
    for (auto it = files.rbegin(); it != files.rend(); ++it) {
      if (LoadCheckpointFile(it->second, seq_out)) {
        last_checkpoint_seq_ = *seq_out;
        return true;
      }
      GB_LOG(kWarning) << "checkpoint " << it->second
                       << " invalid (torn/corrupt/mismatched); falling back";
    }
    GB_LOG(kWarning) << "no valid checkpoint in " << options_.directory;
    return false;
  }

  // Starts a new lineage in a reused directory: removes every checkpoint and
  // empties the journal and the shed log. For a caller about to stream from
  // a fresh initial state, whose sequence numbers restart at 0 — an earlier
  // run's artifacts would otherwise be restored, replayed or pruned against
  // them.
  void DiscardLineage() {
    for (const auto& [seq, path] : ListCheckpoints()) {
      env_->Remove(path);
    }
    wal_.Reset();
    std::lock_guard<std::mutex> lock(shed_mu_);
    shed_.Reset();
    shed_seq_ = 0;
    last_checkpoint_seq_ = 0;
  }

  // Verifies every artifact this checkpointer owns (checkpoint chain,
  // journal, shed log) the same way the runtime would, demoting corrupt
  // checkpoints to `.quarantined` siblings and healing torn/corrupt WAL
  // tails. The caller holds the journal serialization (the driver runs
  // this off quiescent ticks); shed appends are excluded via shed_mu_.
  ScrubResult Scrub() {
    ScrubResult result;
    for (const auto& [seq, path] : ListCheckpoints()) {
      ++result.artifacts_checked;
      std::string bytes;
      CheckpointInspection inspection;
      if (env_->ReadFile(path, &bytes).ok()) {
        inspection = InspectCheckpointBytes(bytes);
      } else {
        inspection.error = "unreadable";
      }
      if (!inspection.valid) {
        ++result.corruptions;
        GB_LOG(kWarning) << "scrub: checkpoint " << path << " corrupt ("
                         << inspection.error << "); quarantining";
        if (env_->Rename(path, path + ".quarantined").ok()) {
          ++result.quarantined;
        }
      }
    }
    {
      ++result.artifacts_checked;
      WalScanInfo info = wal_.Verify();
      if (!info.clean()) {
        ++result.corruptions;
        if (wal_.Heal()) {
          ++result.quarantined;
        }
      }
    }
    {
      std::lock_guard<std::mutex> lock(shed_mu_);
      ++result.artifacts_checked;
      WalScanInfo info = shed_.Verify();
      if (!info.clean()) {
        ++result.corruptions;
        if (shed_.Heal()) {
          ++result.quarantined;
        }
      }
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.scrub_passes;
      stats_.scrub_corruptions += result.corruptions;
    }
    return result;
  }

  // Adds this checkpointer's durability counters into a driver stats
  // snapshot (EngineStats carries them so they surface uniformly).
  void MergeStats(EngineStats* s) const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    s->checkpoints_written += stats_.checkpoints_written;
    s->checkpoint_retries += stats_.checkpoint_retries;
    s->checkpoint_failures += stats_.checkpoint_failures;
    s->checkpoint_seconds += stats_.checkpoint_seconds;
    s->wal_appends += stats_.wal_appends;
    s->wal_retries += stats_.wal_retries;
    s->enospc_aborts += stats_.enospc_aborts;
    s->wal_corruptions_detected += stats_.wal_corrupt_records;
    s->scrub_passes += stats_.scrub_passes;
    s->scrub_corruptions += stats_.scrub_corruptions;
  }

 private:
  struct Stats {
    uint64_t checkpoints_written = 0;
    uint64_t checkpoint_retries = 0;
    uint64_t checkpoint_failures = 0;
    double checkpoint_seconds = 0.0;
    uint64_t wal_appends = 0;
    uint64_t wal_retries = 0;
    uint64_t enospc_aborts = 0;
    uint64_t wal_corrupt_records = 0;
    uint64_t scrub_passes = 0;
    uint64_t scrub_corruptions = 0;
  };

  void Count(uint64_t Stats::* field) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++(stats_.*field);
  }

  // The durability policy of both durable writes (see the file header):
  // runs attempt(StorageStatus*) up to RetryPolicy::max_attempts times with
  // jittered backoff, counting each retry into `retries`. An attempt that
  // reports ENOSPC abandons at once — a full disk does not get better
  // inside a backoff window. `path` and `seq` name the write in logs;
  // `recourse` says what still covers the state once it is abandoned.
  template <typename Attempt>
  bool WithRetries(uint64_t Stats::* retries, const std::string& path, uint64_t seq,
                   const char* recourse, Attempt&& attempt) {
    Backoff backoff(options_.retry.initial_backoff_seconds, options_.retry.backoff_multiplier,
                    options_.retry.max_backoff_seconds);
    for (int i = 0; i < options_.retry.max_attempts; ++i) {
      if (i > 0) {
        backoff.Sleep();
        Count(retries);
      }
      StorageStatus status;
      if (attempt(&status)) {
        return true;
      }
      if (status.enospc()) {
        Count(&Stats::enospc_aborts);
        GB_LOG(kError) << path << ": write for batch " << seq
                       << " hit ENOSPC — abandoning without retries (a full "
                       << "disk is not transient). Free space or point --checkpoint-dir "
                       << "at a larger volume; " << recourse << ".";
        return false;
      }
    }
    GB_LOG(kWarning) << path << ": write for batch " << seq << " failed after "
                     << options_.retry.max_attempts << " attempts; " << recourse;
    return false;
  }

  std::string PathFor(uint64_t seq) const {
    char name[64];
    std::snprintf(name, sizeof(name), "checkpoint-%020llu.ckpt",
                  static_cast<unsigned long long>(seq));
    return options_.directory + "/" + name;
  }

  // (seq, path) for every committed checkpoint file, sorted ascending.
  std::vector<std::pair<uint64_t, std::string>> ListCheckpoints() const {
    std::vector<std::pair<uint64_t, std::string>> files;
    for (const std::string& name : env_->ListDirectory(options_.directory)) {
      unsigned long long seq = 0;
      if (std::sscanf(name.c_str(), "checkpoint-%llu.ckpt", &seq) == 1 &&
          name.size() > 5 && name.substr(name.size() - 5) == ".ckpt") {
        files.emplace_back(seq, options_.directory + "/" + name);
      }
    }
    std::sort(files.begin(), files.end());
    return files;
  }

  bool WriteCheckpointFile(const std::string& path, uint64_t seq,
                           StorageStatus* status) {
    *status = StorageStatus::Ok();
    if (GB_FAULT_POINT(injector_, FaultSite::kCheckpointWrite)) {
      return false;  // injected serialization failure; caller retries
    }
    // Stage the whole file, checksum each section, and hand it to the env
    // as one write: a crash tears the .tmp sibling, never a committed file.
    std::string bytes;
    AppendRaw(&bytes, kCheckpointMagic);
    AppendRaw(&bytes, kCheckpointVersion);
    AppendRaw(&bytes, seq);
    const EdgeList snapshot = graph_->ToEdgeList();
    AppendRaw(&bytes, static_cast<uint64_t>(snapshot.num_vertices()));
    AppendRaw(&bytes, static_cast<uint64_t>(snapshot.num_edges()));
    AppendRaw(&bytes, MaskCrc(Crc32c(bytes.data(), bytes.size())));
    const size_t edges_begin = bytes.size();
    if (!snapshot.edges().empty()) {
      bytes.append(reinterpret_cast<const char*>(snapshot.edges().data()),
                   snapshot.edges().size() * sizeof(Edge));
    }
    AppendRaw(&bytes, MaskCrc(Crc32c(bytes.data() + edges_begin,
                                     bytes.size() - edges_begin)));
    std::ostringstream engine_stage;
    if (!engine_->SaveStateTo(engine_stage)) {
      return false;
    }
    const std::string engine_payload = std::move(engine_stage).str();
    AppendRaw(&bytes, static_cast<uint64_t>(engine_payload.size()));
    bytes.append(engine_payload);
    AppendRaw(&bytes, MaskCrc(Crc32c(engine_payload.data(), engine_payload.size())));
    AppendRaw(&bytes, kCheckpointFooter);

    auto file = env_->NewWritableFile(path, /*truncate=*/true);
    if (!file) {
      *status = StorageStatus::Eio();
      return false;
    }
    *status = file->Write(bytes.data(), bytes.size());
    if (status->ok()) {
      *status = file->Flush();
    }
    file->Close();
    return status->ok();
  }

  bool LoadCheckpointFile(const std::string& path, uint64_t* seq_out) {
    // Slurp and validate the full checksum chain before touching live
    // state.
    std::string bytes;
    if (!env_->ReadFile(path, &bytes).ok()) {
      return false;
    }
    const CheckpointInspection inspection = InspectCheckpointBytes(bytes);
    if (!inspection.valid) {
      GB_LOG(kWarning) << "checkpoint " << path << ": " << inspection.error;
      return false;
    }
    std::vector<Edge> edges(inspection.num_edges);
    const size_t edge_bytes =
        static_cast<size_t>(inspection.num_edges) * sizeof(Edge);
    if (edge_bytes > 0) {
      std::memcpy(edges.data(), bytes.data() + inspection.edges_offset, edge_bytes);
    }
    EdgeList snapshot(static_cast<VertexId>(inspection.num_vertices),
                      std::move(edges));
    // Envelope is intact: rebuild the graph, then the engine state. The
    // edge list was exported sorted (CSR keeps neighbor lists sorted), so
    // the rebuilt CSR iterates identically — the bitwise-recovery premise.
    *graph_ = MutableGraph(snapshot);
    std::istringstream stream(
        bytes.substr(inspection.engine_offset, inspection.engine_bytes));
    if (!engine_->LoadStateFrom(stream)) {
      GB_LOG(kWarning) << "checkpoint " << path << ": engine payload rejected";
      return false;
    }
    *seq_out = inspection.seq;
    return true;
  }

  // Removes checkpoints beyond the retention window, then compacts the WAL
  // up to the oldest retained checkpoint (records <= that seq can never be
  // needed again; records after it are kept so every retained checkpoint
  // still has its full tail).
  void Prune() {
    std::vector<std::pair<uint64_t, std::string>> files = ListCheckpoints();
    if (files.size() <= static_cast<size_t>(options_.keep)) {
      return;
    }
    const size_t drop = files.size() - static_cast<size_t>(options_.keep);
    for (size_t i = 0; i < drop; ++i) {
      env_->Remove(files[i].second);
    }
    wal_.DropThrough(files[drop].first);
  }

  template <typename V>
  static void AppendRaw(std::string* out, const V& value) {
    out->append(reinterpret_cast<const char*>(&value), sizeof(V));
  }

  Engine* engine_;
  MutableGraph* graph_;
  const Options options_;
  FaultInjector* injector_;
  // Sequence number of the last checkpoint written (or attempted) or
  // restored: the origin of the cadence. Caller-serialized, like the WAL.
  uint64_t last_checkpoint_seq_ = 0;
  StorageEnv* env_ = nullptr;
  WriteAheadLog wal_;

  std::mutex shed_mu_;
  WriteAheadLog shed_;
  uint64_t shed_seq_ = 0;

  mutable std::mutex stats_mu_;
  Stats stats_;
};

}  // namespace graphbolt

#endif  // SRC_FAULT_CHECKPOINT_H_

// A write-ahead log of applied mutation batches.
//
// The driver appends each batch under the engine mutex immediately before
// applying it, so the log's record order is the apply order by
// construction; a checkpoint taken after batch k therefore supersedes
// exactly the log prefix 1..k, and recovery is "restore checkpoint, replay
// the records with seq > k".
//
// Record layout (little-endian, host byte order — the log is a crash
// artifact consumed by the same build, not an interchange format):
//
//   u32 magic "GBW2" | u64 seq | u64 count | u32 masked crc32c
//                    | count * EdgeMutation (raw)
//
// The CRC covers seq, count, and the payload, and is stored masked
// (src/util/crc32c.h) so a log full of zeros is not self-consistent.
//
// Replay distinguishes a *torn tail* (short final record: the write in
// flight when the process died; expected, tolerated) from *corruption*
// (bad magic or CRC mismatch with bytes still after it: the disk lied).
// Both stop replay at the last intact record boundary; neither ever
// delivers a record whose checksum does not verify. Heal() truncates the
// file back to that boundary so the lineage can keep appending cleanly.
//
// All I/O flows through a StorageEnv so tests can inject disk faults; the
// default env is the real filesystem.
#ifndef SRC_FAULT_WAL_H_
#define SRC_FAULT_WAL_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/fault/storage_env.h"
#include "src/graph/mutation.h"
#include "src/util/crc32c.h"
#include "src/util/logging.h"

namespace graphbolt {

// Outcome of scanning a log file. valid_bytes is the offset just past the
// last record that verified — the truncation point for repair.
struct WalScanInfo {
  uint64_t valid_bytes = 0;
  uint64_t file_bytes = 0;
  size_t records_total = 0;   // records that verified (any seq)
  bool torn_tail = false;     // short final record — a crash artifact
  bool corrupt = false;       // bad magic / CRC mismatch — the disk lied
  bool clean() const { return !torn_tail && !corrupt; }
};

class WriteAheadLog {
 public:
  static constexpr uint32_t kRecordMagic = 0x32574247u;  // "GBW2"

  WriteAheadLog() = default;
  explicit WriteAheadLog(std::string path) { Open(std::move(path)); }

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  // Binds the log to a file. Existing records are preserved (the append
  // stream opens in append mode on first use). A null env means the real
  // filesystem.
  void Open(std::string path, StorageEnv* env = nullptr) {
    out_.reset();
    path_ = std::move(path);
    env_ = env ? env : StorageEnv::Default();
  }

  const std::string& path() const { return path_; }
  StorageEnv* env() const { return env_ ? env_ : StorageEnv::Default(); }

  // Status of the most recent append's failing operation (ok when the last
  // append succeeded). Lets callers classify ENOSPC as fatal-fast instead
  // of retrying a full disk.
  const StorageStatus& last_status() const { return last_status_; }

  // Appends one record and flushes it to the OS. The record is staged and
  // handed to the file as a single Write so a mid-write crash tears at most
  // one record. Returns false when the file cannot be opened or the write
  // fails (nothing usable was made durable; the torn tail, if any, is
  // ignored by Replay).
  bool Append(uint64_t seq, const MutationBatch& batch) {
    if (!EnsureOpen()) {
      last_status_ = StorageStatus::Eio();
      return false;
    }
    const std::string record = EncodeRecord(seq, batch);
    StorageStatus status = out_->Write(record.data(), record.size());
    if (status.ok()) {
      status = out_->Flush();
    }
    if (!status.ok()) {
      last_status_ = status;
      // Poisoned file: drop it so the next append retries from open().
      out_.reset();
      return false;
    }
    last_status_ = StorageStatus::Ok(record.size());
    return true;
  }

  // Streams every intact record with seq > after_seq through
  // fn(seq, MutationBatch&&), in file order, stopping early after
  // max_records invocations. Returns the number of records delivered.
  // A record that fails its checksum is never delivered; it (and
  // everything after it) is dropped with a warning, and `info` (optional)
  // reports where the valid prefix ends.
  template <typename Fn>
  size_t Replay(uint64_t after_seq, Fn&& fn,
                size_t max_records = static_cast<size_t>(-1),
                WalScanInfo* info = nullptr) const {
    std::string buf;
    if (!env()->ReadFile(path_, &buf).ok()) {
      if (info) *info = WalScanInfo{};
      return 0;  // no log yet — an empty tail, not an error
    }
    return ParseBuffer(buf, path_, after_seq, std::forward<Fn>(fn),
                       max_records, info);
  }

  // Scans the whole file verifying checksums without delivering batches.
  WalScanInfo Verify() const {
    WalScanInfo info;
    Replay(~uint64_t{0}, [](uint64_t, MutationBatch&&) {},
           static_cast<size_t>(-1), &info);
    return info;
  }

  // Truncates the file back to the last intact record boundary. Returns
  // true when a torn/corrupt suffix was actually cut off. Callers hold the
  // same serialization they hold for Append.
  bool Heal() {
    WalScanInfo info = Verify();
    if (info.clean() || info.valid_bytes >= info.file_bytes) {
      return false;
    }
    out_.reset();  // reopen after the truncate, not across it
    if (!env()->Truncate(path_, info.valid_bytes).ok()) {
      return false;
    }
    GB_LOG(kWarning) << "WAL " << path_ << ": healed — truncated "
                     << (info.file_bytes - info.valid_bytes)
                     << " unverifiable tail bytes at offset "
                     << info.valid_bytes;
    return true;
  }

  // Truncates the log to empty.
  void Reset() {
    out_.reset();
    auto file = env()->NewWritableFile(path_, /*truncate=*/true);
    if (file) file->Close();
  }

  // Atomically drops every record with seq <= cutoff_seq (they precede a
  // retained checkpoint) by rewriting the survivors to a temp file and
  // renaming it into place. Returns false and leaves the log unchanged on
  // IO failure.
  bool DropThrough(uint64_t cutoff_seq) {
    const std::string tmp = path_ + ".tmp";
    {
      auto out = env()->NewWritableFile(tmp, /*truncate=*/true);
      if (!out) {
        return false;
      }
      bool write_ok = true;
      Replay(cutoff_seq, [&](uint64_t seq, MutationBatch&& batch) {
        const std::string record = EncodeRecord(seq, batch);
        if (!out->Write(record.data(), record.size()).ok()) {
          write_ok = false;
        }
      });
      if (!out->Flush().ok() || !write_ok) {
        out->Close();
        env()->Remove(tmp);
        return false;
      }
      out->Close();
    }
    out_.reset();
    return env()->Rename(tmp, path_).ok();
  }

 private:
  // Sanity bound for the record header: a count beyond this is corruption,
  // not a batch (the driver's gutter flushes long before 2^32 mutations).
  static constexpr uint64_t kMaxRecordMutations = uint64_t{1} << 32;
  static constexpr size_t kRecordHeaderBytes =
      sizeof(uint32_t) + 2 * sizeof(uint64_t) + sizeof(uint32_t);

  // The one record encoder (layout in the file header).
  static std::string EncodeRecord(uint64_t seq, const MutationBatch& batch) {
    const uint64_t count = batch.size();
    const size_t payload_bytes = count * sizeof(EdgeMutation);
    std::string record;
    record.reserve(kRecordHeaderBytes + payload_bytes);
    AppendRaw(&record, kRecordMagic);
    AppendRaw(&record, seq);
    AppendRaw(&record, count);
    uint32_t crc = Crc32c(&seq, sizeof(seq));
    crc = Crc32cExtend(crc, &count, sizeof(count));
    if (count > 0) {
      crc = Crc32cExtend(crc, batch.data(), payload_bytes);
    }
    AppendRaw(&record, MaskCrc(crc));
    if (count > 0) {
      record.append(reinterpret_cast<const char*>(batch.data()), payload_bytes);
    }
    return record;
  }

  template <typename Fn>
  static size_t ParseBuffer(const std::string& buf, const std::string& path,
                            uint64_t after_seq, Fn&& fn, size_t max_records,
                            WalScanInfo* info) {
    WalScanInfo local;
    local.file_bytes = buf.size();
    size_t delivered = 0;
    size_t offset = 0;
    while (delivered < max_records) {
      if (offset == buf.size()) {
        break;  // clean EOF
      }
      if (buf.size() - offset < sizeof(uint32_t)) {
        local.torn_tail = true;
        break;
      }
      uint32_t magic = 0;
      std::memcpy(&magic, buf.data() + offset, sizeof(magic));
      if (magic != kRecordMagic) {
        local.corrupt = true;
        GB_LOG(kWarning) << "WAL " << path << ": bad record magic at offset "
                         << offset << " after " << local.records_total
                         << " intact records; stopping replay";
        break;
      }
      if (buf.size() - offset < kRecordHeaderBytes) {
        local.torn_tail = true;
        break;
      }
      uint64_t seq = 0;
      uint64_t count = 0;
      uint32_t stored_crc = 0;
      std::memcpy(&seq, buf.data() + offset + sizeof(uint32_t), sizeof(seq));
      std::memcpy(&count, buf.data() + offset + sizeof(uint32_t) + sizeof(seq),
                  sizeof(count));
      std::memcpy(&stored_crc,
                  buf.data() + offset + kRecordHeaderBytes - sizeof(stored_crc),
                  sizeof(stored_crc));
      if (count > kMaxRecordMutations) {
        local.corrupt = true;
        GB_LOG(kWarning) << "WAL " << path << ": implausible record count "
                         << count << " at offset " << offset
                         << "; stopping replay";
        break;
      }
      const size_t payload_bytes =
          static_cast<size_t>(count) * sizeof(EdgeMutation);
      if (buf.size() - offset - kRecordHeaderBytes < payload_bytes) {
        local.torn_tail = true;
        GB_LOG(kWarning) << "WAL " << path << ": torn payload at seq " << seq
                         << "; stopping replay";
        break;
      }
      const char* payload = buf.data() + offset + kRecordHeaderBytes;
      uint32_t crc = Crc32c(&seq, sizeof(seq));
      crc = Crc32cExtend(crc, &count, sizeof(count));
      crc = Crc32cExtend(crc, payload, payload_bytes);
      if (MaskCrc(crc) != stored_crc) {
        local.corrupt = true;
        GB_LOG(kWarning) << "WAL " << path << ": checksum mismatch at seq "
                         << seq << " (offset " << offset
                         << "); truncating replay at last valid record";
        break;
      }
      offset += kRecordHeaderBytes + payload_bytes;
      local.valid_bytes = offset;
      ++local.records_total;
      if (seq > after_seq) {
        MutationBatch batch(count);
        if (count > 0) {
          std::memcpy(batch.data(), payload, payload_bytes);
        }
        fn(seq, std::move(batch));
        ++delivered;
      }
    }
    if (info) {
      *info = local;
    }
    return delivered;
  }

  bool EnsureOpen() {
    if (out_) {
      return true;
    }
    GB_CHECK(!path_.empty()) << "WriteAheadLog used before Open()";
    out_ = env()->NewWritableFile(path_, /*truncate=*/false);
    return out_ != nullptr;
  }

  template <typename V>
  static void AppendRaw(std::string* out, const V& value) {
    out->append(reinterpret_cast<const char*>(&value), sizeof(V));
  }

  std::string path_;
  StorageEnv* env_ = nullptr;
  std::unique_ptr<WritableFile> out_;
  StorageStatus last_status_ = StorageStatus::Ok();
};

// Scans a WAL file that nothing holds open (fsck over lane/quarantine/shed
// lineages). Missing file → zeroed info with clean()==true.
inline WalScanInfo VerifyWalFile(const std::string& path,
                                 StorageEnv* env = nullptr) {
  WriteAheadLog log;
  log.Open(path, env);
  return log.Verify();
}

}  // namespace graphbolt

#endif  // SRC_FAULT_WAL_H_

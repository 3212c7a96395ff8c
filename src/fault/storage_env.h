#pragma once

// StorageEnv — the seam between the durability layer and the filesystem.
//
// Every byte the durability layer persists (WAL records, checkpoint files,
// the quarantine and shed logs) flows through a StorageEnv so that tests can
// substitute a FaultyEnv and make the disk misbehave deterministically:
// EIO, ENOSPC, short writes, read-side bit flips — and, for the
// out-of-process crash harness, SIGKILL raised from *inside* a write or a
// rename, which is how a real power-cut tears a record in half.
//
// The contract is deliberately tiny (append-or-truncate writable files,
// whole-file reads, rename/remove/truncate): it is exactly what the
// durability layer needs and nothing more, which keeps the fault matrix
// enumerable. The default env is the real filesystem; every constructor in
// the durability layer defaults to it, so production call sites never name
// an env.
//
// Thread safety: distinct WritableFiles may be used from distinct threads;
// a single WritableFile is externally serialized (the WAL holds its own
// mutex). FaultyEnv's fault arms/counters are internally locked.

#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "src/util/logging.h"

namespace graphbolt {

// Outcome of a storage operation. ENOSPC is distinguished from generic I/O
// failure because callers classify it differently: a full disk is not a
// transient fault, and retry-with-backoff against it only burns the budget
// (see Checkpointer::AppendWal).
struct StorageStatus {
  enum class Code : uint8_t { kOk = 0, kEio = 1, kEnospc = 2 };

  Code code = Code::kOk;
  // Bytes actually persisted by a Write; < requested on a short write.
  uint64_t bytes_written = 0;

  bool ok() const { return code == Code::kOk; }
  bool enospc() const { return code == Code::kEnospc; }

  const char* name() const {
    switch (code) {
      case Code::kOk: return "ok";
      case Code::kEio: return "EIO";
      case Code::kEnospc: return "ENOSPC";
    }
    return "?";
  }

  static StorageStatus Ok(uint64_t n = 0) { return {Code::kOk, n}; }
  static StorageStatus Eio(uint64_t n = 0) { return {Code::kEio, n}; }
  static StorageStatus Enospc(uint64_t n = 0) { return {Code::kEnospc, n}; }
};

// A sequentially writable file. Close() is idempotent; the destructor
// closes. Write() reports short writes via bytes_written rather than
// pretending atomicity the filesystem never promised.
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual StorageStatus Write(const void* data, size_t n) = 0;
  virtual StorageStatus Flush() = 0;
  virtual void Close() = 0;
};

class StorageEnv {
 public:
  virtual ~StorageEnv() = default;

  // Opens `path` for writing: append mode when `truncate` is false (the WAL
  // lineage), truncated when true (checkpoint temp files, WAL reset).
  // Returns nullptr on open failure.
  virtual std::unique_ptr<WritableFile> NewWritableFile(
      const std::string& path, bool truncate) = 0;

  // Slurps the whole file into `*out`. Returns kEio if absent/unreadable.
  // Durability artifacts are bounded (WALs are pruned at checkpoint
  // boundaries), so whole-file reads keep the CRC scan trivially correct —
  // there is no partially-validated window.
  virtual StorageStatus ReadFile(const std::string& path, std::string* out) = 0;

  virtual StorageStatus Rename(const std::string& from,
                               const std::string& to) = 0;
  virtual StorageStatus Remove(const std::string& path) = 0;
  virtual StorageStatus Truncate(const std::string& path, uint64_t size) = 0;

  // Size in bytes, or -1 when absent.
  virtual int64_t FileSize(const std::string& path) = 0;

  virtual bool CreateDirectories(const std::string& path) = 0;

  // Directory entries (file names, not paths), unsorted. Empty when absent.
  virtual std::vector<std::string> ListDirectory(const std::string& path) = 0;

  // The real filesystem. Never deleted; safe to use during static teardown.
  static StorageEnv* Default();
};

namespace storage_detail {

class PosixWritableFile final : public WritableFile {
 public:
  PosixWritableFile(const std::string& path, bool truncate)
      : out_(path, truncate ? (std::ios::binary | std::ios::trunc)
                            : (std::ios::binary | std::ios::app)) {}

  StorageStatus Write(const void* data, size_t n) override {
    if (!out_.good()) return StorageStatus::Eio();
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(n));
    if (!out_.good()) return StorageStatus::Eio();
    return StorageStatus::Ok(n);
  }

  StorageStatus Flush() override {
    out_.flush();
    return out_.good() ? StorageStatus::Ok() : StorageStatus::Eio();
  }

  void Close() override {
    if (out_.is_open()) out_.close();
  }

  bool opened() const { return out_.is_open(); }

 private:
  std::ofstream out_;
};

class PosixEnv final : public StorageEnv {
 public:
  std::unique_ptr<WritableFile> NewWritableFile(const std::string& path,
                                                bool truncate) override {
    auto file = std::make_unique<PosixWritableFile>(path, truncate);
    if (!file->opened()) return nullptr;
    return file;
  }

  StorageStatus ReadFile(const std::string& path, std::string* out) override {
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open()) return StorageStatus::Eio();
    std::ostringstream buf;
    buf << in.rdbuf();
    if (in.bad()) return StorageStatus::Eio();
    *out = std::move(buf).str();
    return StorageStatus::Ok(out->size());
  }

  StorageStatus Rename(const std::string& from,
                       const std::string& to) override {
    std::error_code ec;
    std::filesystem::rename(from, to, ec);
    return ec ? StorageStatus::Eio() : StorageStatus::Ok();
  }

  StorageStatus Remove(const std::string& path) override {
    std::error_code ec;
    std::filesystem::remove(path, ec);
    return ec ? StorageStatus::Eio() : StorageStatus::Ok();
  }

  StorageStatus Truncate(const std::string& path, uint64_t size) override {
    std::error_code ec;
    std::filesystem::resize_file(path, size, ec);
    return ec ? StorageStatus::Eio() : StorageStatus::Ok();
  }

  int64_t FileSize(const std::string& path) override {
    std::error_code ec;
    auto size = std::filesystem::file_size(path, ec);
    return ec ? -1 : static_cast<int64_t>(size);
  }

  bool CreateDirectories(const std::string& path) override {
    std::error_code ec;
    std::filesystem::create_directories(path, ec);
    return !ec;
  }

  std::vector<std::string> ListDirectory(const std::string& path) override {
    std::vector<std::string> names;
    std::error_code ec;
    for (auto it = std::filesystem::directory_iterator(path, ec);
         !ec && it != std::filesystem::directory_iterator(); ++it) {
      names.push_back(it->path().filename().string());
    }
    return names;
  }
};

}  // namespace storage_detail

inline StorageEnv* StorageEnv::Default() {
  // Leaked on purpose: durability objects with static storage duration may
  // still write during teardown.
  static StorageEnv* env = new storage_detail::PosixEnv();
  return env;
}

// ---------------------------------------------------------------------------
// FaultyEnv — deterministic misbehaving storage for tests.
//
// Wraps a base env (the real filesystem by default) and injects faults at
// byte granularity. All arms are one-shot-per-trigger and counted, so a test
// can assert a fault actually fired. Write numbering is global across all
// files opened through this env (1-based, in open/write order), which is
// what lets the crash harness say "die on the 17th durable write of the run"
// and land inside whatever artifact that happens to be — WAL append,
// checkpoint body, lane lineage.
// ---------------------------------------------------------------------------
class FaultyEnv final : public StorageEnv {
 public:
  explicit FaultyEnv(StorageEnv* base = nullptr, uint64_t seed = 0)
      : base_(base ? base : StorageEnv::Default()), seed_(seed) {}

  // --- fault arms (all optional, all deterministic) ---

  // The nth (1-based, counted globally) Write returns `status` having
  // persisted only `persist_fraction` of its payload.
  void FailWriteAt(uint64_t nth, StorageStatus::Code code,
                   double persist_fraction = 0.0) {
    std::lock_guard<std::mutex> lock(mu_);
    fail_write_at_ = nth;
    fail_write_code_ = code;
    fail_write_fraction_ = persist_fraction;
  }

  // Every Write from the nth on returns `code` (a disk that stays full).
  void FailWritesFrom(uint64_t nth, StorageStatus::Code code) {
    std::lock_guard<std::mutex> lock(mu_);
    fail_writes_from_ = nth;
    fail_write_code_ = code;
  }

  // The nth Write persists only the first half of its payload, then the
  // process dies by SIGKILL — a torn tail the way a power cut makes one.
  void KillAtWrite(uint64_t nth) {
    std::lock_guard<std::mutex> lock(mu_);
    kill_at_write_ = nth;
  }

  // The nth Rename kills the process: before executing it when `nth` is
  // odd (temp file orphaned, commit never happened), after when even (the
  // commit landed but the process never learned).
  void KillAtRename(uint64_t nth) {
    std::lock_guard<std::mutex> lock(mu_);
    kill_at_rename_ = nth;
  }

  // ReadFile on a path containing `path_substring` gets `xor_mask` XORed
  // into the byte at `offset` (mod file size) — a read-side bit flip.
  void CorruptReadAt(std::string path_substring, uint64_t offset,
                     uint8_t xor_mask) {
    std::lock_guard<std::mutex> lock(mu_);
    corrupt_read_substr_ = std::move(path_substring);
    corrupt_read_offset_ = offset;
    corrupt_read_mask_ = xor_mask;
  }

  void ClearFaults() {
    std::lock_guard<std::mutex> lock(mu_);
    fail_write_at_ = 0;
    fail_writes_from_ = 0;
    kill_at_write_ = 0;
    kill_at_rename_ = 0;
    corrupt_read_substr_.clear();
  }

  // --- observability ---
  uint64_t writes_seen() const { return writes_seen_.load(); }
  uint64_t renames_seen() const { return renames_seen_.load(); }
  uint64_t faults_fired() const { return faults_fired_.load(); }
  uint64_t seed() const { return seed_; }

  // --- test helper: flip a byte *on disk* (bypasses the env) ---
  static bool FlipByteOnDisk(const std::string& path, uint64_t offset,
                             uint8_t xor_mask) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    if (!f.is_open()) return false;
    f.seekg(0, std::ios::end);
    const auto size = static_cast<uint64_t>(f.tellg());
    if (size == 0) return false;
    offset %= size;
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(static_cast<uint8_t>(byte) ^ xor_mask);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&byte, 1);
    f.flush();
    return f.good();
  }

  // --- StorageEnv ---
  std::unique_ptr<WritableFile> NewWritableFile(const std::string& path,
                                                bool truncate) override;

  StorageStatus ReadFile(const std::string& path, std::string* out) override {
    StorageStatus status = base_->ReadFile(path, out);
    if (!status.ok()) return status;
    std::lock_guard<std::mutex> lock(mu_);
    if (!corrupt_read_substr_.empty() && !out->empty() &&
        path.find(corrupt_read_substr_) != std::string::npos) {
      const uint64_t at = corrupt_read_offset_ % out->size();
      (*out)[at] = static_cast<char>(static_cast<uint8_t>((*out)[at]) ^
                                     corrupt_read_mask_);
      faults_fired_.fetch_add(1);
    }
    return status;
  }

  StorageStatus Rename(const std::string& from,
                       const std::string& to) override {
    const uint64_t n = renames_seen_.fetch_add(1) + 1;
    uint64_t kill_at = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      kill_at = kill_at_rename_;
    }
    if (kill_at != 0 && n == kill_at) {
      if (n % 2 == 0) base_->Rename(from, to);
      std::raise(SIGKILL);
    }
    return base_->Rename(from, to);
  }

  StorageStatus Remove(const std::string& path) override {
    return base_->Remove(path);
  }
  StorageStatus Truncate(const std::string& path, uint64_t size) override {
    return base_->Truncate(path, size);
  }
  int64_t FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }
  bool CreateDirectories(const std::string& path) override {
    return base_->CreateDirectories(path);
  }
  std::vector<std::string> ListDirectory(const std::string& path) override {
    return base_->ListDirectory(path);
  }

 private:
  friend class FaultyWritableFile;

  // Called by FaultyWritableFile before each underlying write. Returns the
  // action to take for this (globally numbered) write.
  struct WriteDecision {
    bool fail = false;
    StorageStatus::Code code = StorageStatus::Code::kEio;
    double persist_fraction = 0.0;
    bool kill = false;
  };

  WriteDecision DecideWrite() {
    const uint64_t n = writes_seen_.fetch_add(1) + 1;
    std::lock_guard<std::mutex> lock(mu_);
    WriteDecision decision;
    if (kill_at_write_ != 0 && n == kill_at_write_) {
      decision.kill = true;
      faults_fired_.fetch_add(1);
      return decision;
    }
    if (fail_write_at_ != 0 && n == fail_write_at_) {
      decision.fail = true;
      decision.code = fail_write_code_;
      decision.persist_fraction = fail_write_fraction_;
      faults_fired_.fetch_add(1);
      return decision;
    }
    if (fail_writes_from_ != 0 && n >= fail_writes_from_) {
      decision.fail = true;
      decision.code = fail_write_code_;
      decision.persist_fraction = 0.0;
      faults_fired_.fetch_add(1);
    }
    return decision;
  }

  StorageEnv* const base_;
  const uint64_t seed_;

  mutable std::mutex mu_;
  uint64_t fail_write_at_ = 0;
  uint64_t fail_writes_from_ = 0;
  StorageStatus::Code fail_write_code_ = StorageStatus::Code::kEio;
  double fail_write_fraction_ = 0.0;
  uint64_t kill_at_write_ = 0;
  uint64_t kill_at_rename_ = 0;
  std::string corrupt_read_substr_;
  uint64_t corrupt_read_offset_ = 0;
  uint8_t corrupt_read_mask_ = 0;

  std::atomic<uint64_t> writes_seen_{0};
  std::atomic<uint64_t> renames_seen_{0};
  std::atomic<uint64_t> faults_fired_{0};
};

class FaultyWritableFile final : public WritableFile {
 public:
  FaultyWritableFile(FaultyEnv* env, std::unique_ptr<WritableFile> base)
      : env_(env), base_(std::move(base)) {}

  StorageStatus Write(const void* data, size_t n) override {
    FaultyEnv::WriteDecision decision = env_->DecideWrite();
    if (decision.kill) {
      // Persist half the payload first so the on-disk tail is genuinely
      // torn mid-record, then die without unwinding — as SIGKILL does.
      base_->Write(data, n / 2);
      base_->Flush();
      std::raise(SIGKILL);
    }
    if (decision.fail) {
      const auto keep = static_cast<size_t>(
          static_cast<double>(n) * decision.persist_fraction);
      uint64_t persisted = 0;
      if (keep > 0) {
        StorageStatus partial = base_->Write(data, keep);
        base_->Flush();
        persisted = partial.bytes_written;
      }
      StorageStatus status;
      status.code = decision.code;
      status.bytes_written = persisted;
      return status;
    }
    return base_->Write(data, n);
  }

  StorageStatus Flush() override { return base_->Flush(); }
  void Close() override { base_->Close(); }

 private:
  FaultyEnv* const env_;
  std::unique_ptr<WritableFile> base_;
};

inline std::unique_ptr<WritableFile> FaultyEnv::NewWritableFile(
    const std::string& path, bool truncate) {
  auto base = base_->NewWritableFile(path, truncate);
  if (!base) return nullptr;
  return std::make_unique<FaultyWritableFile>(this, std::move(base));
}

}  // namespace graphbolt

// TimedEnv: a StorageEnv that forwards to another one and times the calls
// the durability layer makes on the write path (Write, Flush, Rename).
// Passed in through Checkpointer::Options::env, it sees every durable byte
// of a run: the global WAL, the shard WAL lineages (ShardedDriver borrows
// the checkpointer's env) and the checkpoint files.
#ifndef PERFBENCH_SRC_TIMED_ENV_H_
#define PERFBENCH_SRC_TIMED_ENV_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/metrics.h"
#include "src/fault/storage_env.h"

namespace perfbench {

struct StorageCounters {
  uint64_t write_calls = 0;
  uint64_t write_bytes = 0;
  double write_seconds = 0.0;
  uint64_t flush_calls = 0;
  double flush_seconds = 0.0;
  uint64_t rename_calls = 0;
  double rename_seconds = 0.0;
};

class TimedEnv final : public graphbolt::StorageEnv {
 public:
  explicit TimedEnv(graphbolt::StorageEnv* base = graphbolt::StorageEnv::Default())
      : base_(base) {}

  std::unique_ptr<graphbolt::WritableFile> NewWritableFile(const std::string& path,
                                                           bool truncate) override {
    std::unique_ptr<graphbolt::WritableFile> file = base_->NewWritableFile(path, truncate);
    if (file == nullptr) {
      return nullptr;
    }
    return std::make_unique<TimedFile>(std::move(file), this);
  }

  graphbolt::StorageStatus ReadFile(const std::string& path, std::string* out) override {
    return base_->ReadFile(path, out);
  }

  graphbolt::StorageStatus Rename(const std::string& from, const std::string& to) override {
    const double start = Now();
    const graphbolt::StorageStatus status = base_->Rename(from, to);
    const double seconds = Now() - start;
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.rename_calls;
    counters_.rename_seconds += seconds;
    return status;
  }

  graphbolt::StorageStatus Remove(const std::string& path) override {
    return base_->Remove(path);
  }

  graphbolt::StorageStatus Truncate(const std::string& path, uint64_t size) override {
    return base_->Truncate(path, size);
  }

  int64_t FileSize(const std::string& path) override { return base_->FileSize(path); }

  bool CreateDirectories(const std::string& path) override {
    return base_->CreateDirectories(path);
  }

  std::vector<std::string> ListDirectory(const std::string& path) override {
    return base_->ListDirectory(path);
  }

  StorageCounters counters() const {
    std::lock_guard<std::mutex> lock(mu_);
    return counters_;
  }

  // Starts the count afresh (at the start of a timed phase).
  void ResetCounters() {
    std::lock_guard<std::mutex> lock(mu_);
    counters_ = {};
  }

 private:
  class TimedFile final : public graphbolt::WritableFile {
   public:
    TimedFile(std::unique_ptr<graphbolt::WritableFile> base, TimedEnv* env)
        : base_(std::move(base)), env_(env) {}

    graphbolt::StorageStatus Write(const void* data, size_t n) override {
      const double start = Now();
      const graphbolt::StorageStatus status = base_->Write(data, n);
      const double seconds = Now() - start;
      std::lock_guard<std::mutex> lock(env_->mu_);
      ++env_->counters_.write_calls;
      env_->counters_.write_bytes += status.bytes_written;
      env_->counters_.write_seconds += seconds;
      return status;
    }

    graphbolt::StorageStatus Flush() override {
      const double start = Now();
      const graphbolt::StorageStatus status = base_->Flush();
      const double seconds = Now() - start;
      std::lock_guard<std::mutex> lock(env_->mu_);
      ++env_->counters_.flush_calls;
      env_->counters_.flush_seconds += seconds;
      return status;
    }

    void Close() override { base_->Close(); }

   private:
    std::unique_ptr<graphbolt::WritableFile> base_;
    TimedEnv* env_;
  };

  graphbolt::StorageEnv* base_;
  mutable std::mutex mu_;
  StorageCounters counters_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TIMED_ENV_H_

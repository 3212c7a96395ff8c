// Offline integrity check over a durability directory.
//
// Fsck walks every artifact a checkpoint directory can hold — the committed
// checkpoint chain, the global journal, the shed log, the quarantine
// dead-letter log, and any other `*.wal` (such as the per-lane
// `shard-<i>.wal` lineages older builds wrote) — and verifies each one
// with the *same* predicates the runtime uses (InspectCheckpointBytes for
// checkpoints, the WAL checksum scan for logs). An artifact fsck flags is
// exactly an artifact RestoreLatest or Replay would reject; an artifact
// fsck passes will load. That shared-predicate property is what makes the
// tool trustworthy, and it is why the checks live in src/fault/ rather
// than in the CLI.
//
// Repair is deliberately conservative — it only ever narrows state the
// runtime would already refuse to read:
//   * a torn/corrupt WAL is truncated back to its last checksummed record;
//   * a corrupt checkpoint is demoted to a `.quarantined` sibling so the
//     restore chain skips it without a parse attempt;
//   * orphaned `.tmp` siblings (a crash between write and rename) are
//     removed.
// Nothing readable is ever modified.
#ifndef SRC_FAULT_FSCK_H_
#define SRC_FAULT_FSCK_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/fault/checkpoint.h"
#include "src/fault/storage_env.h"
#include "src/fault/wal.h"
#include "src/util/logging.h"

namespace graphbolt {

struct FsckIssue {
  enum class Kind : uint8_t {
    kCorruptCheckpoint,  // repair: demote to .quarantined
    kCorruptWal,         // repair: truncate to last valid record
    kOrphanTmp,          // repair: remove
  };
  Kind kind;
  std::string path;
  std::string detail;
  // For kCorruptWal: the truncation point repair would use.
  uint64_t valid_bytes = 0;
};

struct FsckReport {
  uint64_t checkpoints_checked = 0;
  uint64_t checkpoints_valid = 0;
  uint64_t wals_checked = 0;
  uint64_t wal_records_valid = 0;
  std::vector<FsckIssue> issues;

  bool clean() const { return issues.empty(); }
};

inline bool FsckIsWalName(const std::string& name) {
  return name.size() > 4 && name.substr(name.size() - 4) == ".wal";
}

// Verifies every artifact under `dir`. Missing directory → clean report
// (nothing to restore is not corruption).
inline FsckReport FsckDirectory(const std::string& dir,
                                StorageEnv* env = nullptr) {
  if (!env) env = StorageEnv::Default();
  FsckReport report;
  for (const std::string& name : env->ListDirectory(dir)) {
    const std::string path = dir + "/" + name;
    if (name.size() > 4 && name.substr(name.size() - 4) == ".tmp") {
      report.issues.push_back({FsckIssue::Kind::kOrphanTmp, path,
                               "orphaned temp file (crash before commit)", 0});
      continue;
    }
    if (name.size() > 5 && name.substr(name.size() - 5) == ".ckpt") {
      ++report.checkpoints_checked;
      std::string bytes;
      CheckpointInspection inspection;
      if (env->ReadFile(path, &bytes).ok()) {
        inspection = InspectCheckpointBytes(bytes);
      } else {
        inspection.error = "unreadable";
      }
      if (inspection.valid) {
        ++report.checkpoints_valid;
      } else {
        report.issues.push_back({FsckIssue::Kind::kCorruptCheckpoint, path,
                                 inspection.error, 0});
      }
      continue;
    }
    if (FsckIsWalName(name)) {
      ++report.wals_checked;
      const WalScanInfo info = VerifyWalFile(path, env);
      report.wal_records_valid += info.records_total;
      if (!info.clean()) {
        report.issues.push_back(
            {FsckIssue::Kind::kCorruptWal, path,
             info.corrupt ? "checksum/framing corruption mid-lineage"
                          : "torn tail (record cut short)",
             info.valid_bytes});
      }
      continue;
    }
  }
  return report;
}

// Applies the conservative repairs for a report's issues. Returns the
// number of issues actually repaired.
inline size_t FsckRepair(const FsckReport& report, StorageEnv* env = nullptr) {
  if (!env) env = StorageEnv::Default();
  size_t repaired = 0;
  for (const FsckIssue& issue : report.issues) {
    switch (issue.kind) {
      case FsckIssue::Kind::kCorruptCheckpoint:
        if (env->Rename(issue.path, issue.path + ".quarantined").ok()) {
          GB_LOG(kInfo) << "fsck: quarantined " << issue.path;
          ++repaired;
        }
        break;
      case FsckIssue::Kind::kCorruptWal:
        if (env->Truncate(issue.path, issue.valid_bytes).ok()) {
          GB_LOG(kInfo) << "fsck: truncated " << issue.path << " to "
                        << issue.valid_bytes << " bytes";
          ++repaired;
        }
        break;
      case FsckIssue::Kind::kOrphanTmp:
        if (env->Remove(issue.path).ok()) {
          GB_LOG(kInfo) << "fsck: removed " << issue.path;
          ++repaired;
        }
        break;
    }
  }
  return repaired;
}

}  // namespace graphbolt

#endif  // SRC_FAULT_FSCK_H_

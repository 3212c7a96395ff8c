// Per-tenant session state: the quota enforcement point of the sharded
// driver's producer API.
//
// Every producer talks to ShardedDriver through a Session handle opened
// with OpenSession(tenant_id). Sessions of the same tenant share one
// TenantState — a token bucket (sustained rate + burst) plus an optional
// hard lifetime cap — so a tenant cannot multiply its quota by opening
// more sessions. Admission is whole-batch-or-nothing: a batch either fits
// the remaining allowance and debits it, or is rejected intact (no partial
// admits), which keeps the accounting exact and the producer's retry
// simple.
//
// The lifetime cap (TenantQuota::max_total_mutations) is deliberately
// wall-clock-free: tests and metered trials get deterministic outcomes —
// offer a capped tenant more than its allowance and exactly the allowance
// is admitted — where a refilling bucket would depend on scheduling.
#ifndef SRC_SHARD_SESSION_H_
#define SRC_SHARD_SESSION_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>

#include "src/shard/driver_config.h"
#include "src/util/timer.h"

namespace graphbolt {

// Cumulative per-tenant counters, readable through Session::stats().
struct TenantStats {
  // Mutations that passed the quota gate and entered the pipeline.
  uint64_t mutations_accepted = 0;
  // Mutations refused by the quota gate (rate, burst, or lifetime cap).
  uint64_t mutations_quota_rejected = 0;
  // Whole-batch rejections behind those mutations.
  uint64_t batches_quota_rejected = 0;
  // Mutations this tenant had parked in the dead-letter quarantine.
  uint64_t mutations_quarantined = 0;
};

// The shared state behind every session of one tenant. Thread-safe; owned
// by the driver (sessions hold a borrowed pointer and must not outlive it).
class TenantState {
 public:
  TenantState(std::string tenant, TenantQuota quota)
      : tenant_(std::move(tenant)),
        quota_(quota),
        burst_(quota.burst_mutations > 0.0
                   ? quota.burst_mutations
                   : std::max(1024.0, quota.mutations_per_second)),
        unlimited_(quota.mutations_per_second <= 0.0 && quota.max_total_mutations == 0),
        tokens_(burst_) {}

  const std::string& tenant() const { return tenant_; }

  // Admits `n` mutations as one unit, debiting the bucket and the lifetime
  // allowance, or rejects all of them. A rate of 0 disables the bucket; a
  // cap of 0 disables the lifetime limit. A tenant with neither has
  // nothing to debit and is admitted without taking the lock.
  bool TryAdmit(size_t n) {
    const auto count = static_cast<uint64_t>(n);
    if (unlimited_) {
      admitted_total_.fetch_add(count, std::memory_order_relaxed);
      return true;
    }
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t admitted = admitted_total_.load(std::memory_order_relaxed);
    if (quota_.max_total_mutations > 0 && admitted + count > quota_.max_total_mutations) {
      RejectLocked(count);
      return false;
    }
    if (quota_.mutations_per_second > 0.0) {
      tokens_ = std::min(
          burst_, tokens_ + quota_.mutations_per_second * refill_.Seconds());
      refill_.Reset();
      if (tokens_ < static_cast<double>(n)) {
        RejectLocked(count);
        return false;
      }
      tokens_ -= static_cast<double>(n);
    }
    admitted_total_.fetch_add(count, std::memory_order_relaxed);
    return true;
  }

  // Called by the driver when this tenant's batch was parked in quarantine.
  // The content screen runs before the quota gate, so a quarantined batch
  // never debited the allowance; this only keeps the tenant's accounting.
  void CountQuarantined(size_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.mutations_quarantined += static_cast<uint64_t>(n);
  }

  TenantStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    TenantStats snapshot = stats_;
    snapshot.mutations_accepted = admitted_total_.load(std::memory_order_relaxed);
    return snapshot;
  }

  TenantQuota quota() const { return quota_; }

 private:
  void RejectLocked(uint64_t count) {
    stats_.mutations_quota_rejected += count;
    ++stats_.batches_quota_rejected;
  }

  mutable std::mutex mu_;
  const std::string tenant_;
  const TenantQuota quota_;
  const double burst_;    // bucket capacity (resolved from the quota)
  const bool unlimited_;  // no bucket and no lifetime cap
  double tokens_;         // current allowance; refilled lazily on TryAdmit
  Timer refill_;          // epoch of the last refill
  // Mutations admitted so far (TenantStats::mutations_accepted). Written
  // under mu_ for limited tenants, whose cap check reads it there too.
  std::atomic<uint64_t> admitted_total_{0};
  TenantStats stats_;     // rejection and quarantine counters
};

}  // namespace graphbolt

#endif  // SRC_SHARD_SESSION_H_

// DriverConfig: the one validated configuration surface of the streaming
// driver (ShardedDriver, src/shard/sharded_driver.h, also spelled
// StreamDriver). One plain struct carries the lane count, batching,
// durability, sentinel knobs, and per-tenant quotas, with
//
//   - RegisterFlags(args) + FromCli(args, &err): the canonical flag
//     surface, registered once and parsed back with actionable errors
//     (the library reads no environment variables);
//   - Validate(): cross-field checks returning an empty string or a
//     message that says what to change.
//
// Examples, benches and graphbolt_cli build exactly one of these and hand
// it to the driver; shards = 1 (the default) is the single-lane pipeline.
#ifndef SRC_SHARD_DRIVER_CONFIG_H_
#define SRC_SHARD_DRIVER_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "src/sentinel/admission.h"
#include "src/util/cli.h"

namespace graphbolt {

// What to do with a flushed batch when its lane's pending queue is full.
enum class OverflowPolicy {
  kBlock,       // block the flushing producer (lossless backpressure)
  kDropNewest,  // shed the batch, counting stats().mutations_dropped
  kShedToWal,   // park the batch in the checkpointer's durable shed log;
                // it re-enters at the next PrepQuery barrier or recovery
  kShedOldest,  // evict the *oldest* queued batch (into the shed log when
                // a checkpointer is attached, else dropped) to admit the
                // fresh one: new data beats stale data under overload
  kDegrade,     // never block, never lose: a batch that cannot be queued
                // re-merges into the gutter to be re-coalesced and
                // retried, and PrepQuery serves the last consistent
                // snapshot while the governor reports overload
};

// When the driver may flip an AsyncDeltaEngine into the Maiter-style
// asynchronous delta-accumulative execution mode (INTERNALS §12).
enum class AsyncModePolicy {
  kOff,          // never: strictly synchronous BSP (the default)
  kDegradeOnly,  // only while the kDegrade governor reports overload;
                 // reconciles back to BSP when pressure clears
};

// Per-tenant admission quota, enforced by ShardedDriver sessions *before*
// a mutation is routed to a shard lane (on top of the sentinel's content
// screening). All three limits compose; zero means unlimited.
struct TenantQuota {
  // Sustained token-bucket rate, mutations per second.
  double mutations_per_second = 0.0;
  // Bucket capacity (how big a burst the tenant may front-load). 0 picks
  // max(1024, mutations_per_second): one default batch, or a second of
  // sustained rate, whichever is larger.
  double burst_mutations = 0.0;
  // Hard lifetime cap on admitted mutations — deterministic, so tests and
  // metered trials don't depend on wall-clock refill.
  uint64_t max_total_mutations = 0;
};

struct DriverConfig {
  // ----- Sharding ---------------------------------------------------------
  // Ingestion lanes: the vertex space is partitioned shard_of(v) = v % N,
  // and each lane owns its own gutter, queue, and worker. Every lane
  // journals into the one global WAL. 1 = the single-lane pipeline.
  size_t shards = 1;

  // ----- Batching ---------------------------------------------------------
  // Gutter flush threshold: mutations per batch handed to the engine.
  size_t batch_size = 1024;
  // A non-full gutter flushes once its oldest mutation is this stale.
  double flush_interval_seconds = 0.05;
  // Capacity of each lane's flushed-batch queue; the backpressure bound.
  size_t max_pending_batches = 4;
  OverflowPolicy overflow = OverflowPolicy::kBlock;
  // Keep only the last mutation per (src, dst) within a flush — exactly
  // the mutations MutableGraph::NormalizeBatch would honor anyway.
  bool coalesce = true;

  // ----- Graph maintenance ------------------------------------------------
  // Background SlackCsr compaction: lane 0 runs graph maintenance steps in
  // the windows between batches (under the engine mutex), so ApplyBatch
  // never pays a synchronous compaction pass — see slack_csr.h. Requires a
  // GraphMaintainableEngine; ignored (with a warning) otherwise. Each step's
  // edge budget adapts to the observed idle windows (maintenance_budget.h).
  bool background_compaction = false;

  // ----- Single-update fast path ------------------------------------------
  // Enables IngestFast: single mutations the engine classifies safe splice
  // in place, bypassing gutter batching (src/driver/fast_path.h). With
  // this false, IngestFast == Ingest.
  bool fast_path = false;

  // ----- Async delta-accumulative mode (INTERNALS §12) --------------------
  // When the engine is an AsyncDeltaEngine and overflow is kDegrade,
  // kDegradeOnly lets the driver flip it into the Maiter-style barrier-free
  // async mode under overload, serving eventually-consistent
  // continuously-updating values (distance to the fixed point bounded by
  // stats().async_residual) instead of a frozen snapshot. Self-clearing:
  // when pressure recedes, or a barrier needs exactness, one reconciling
  // barrier restores bitwise-deterministic BSP state. Inert with any other
  // overflow policy or a non-decomposable engine.
  AsyncModePolicy async_mode = AsyncModePolicy::kOff;
  // Vertex budget per async propagation round (0 = unbounded round).
  size_t async_step_budget = size_t{1} << 14;

  // ----- Durability -------------------------------------------------------
  // Non-empty arms WAL + cadence checkpoints (the caller still constructs
  // the Checkpointer and hands it to the driver; this carries the knobs to
  // one place).
  std::string checkpoint_dir;
  uint64_t checkpoint_every = 8;
  // Background scrub cadence in seconds of worker idle time: verify every
  // durability artifact (checkpoint chain, journal, shed log) with the
  // predicates recovery uses, quarantining corrupt checkpoints and healing
  // torn WAL tails. 0 disables.
  double scrub_interval_seconds = 0.0;

  // ----- Sentinel ---------------------------------------------------------
  // Non-empty enables admission control: every ingested mutation and batch
  // is screened against `admission` before any driver lock, and rejects
  // are parked bitwise-intact (with a RejectReason) in a dead-letter WAL
  // under this directory (created if absent).
  std::string quarantine_dir;
  AdmissionLimits admission;
  // Overload-governor thresholds: pressure is pending-queue depth times
  // the apply-latency EWMA (see sentinel/admission.h).
  GovernorOptions governor;
  // Stall watchdog: a pipeline stage continuously busy for this many
  // seconds is declared stalled. 0 disables the watchdog thread, which
  // polls every min(0.05 s, watchdog_stall_seconds / 16).
  double watchdog_stall_seconds = 0.0;
  // On a detected stall, escalate to Recover() (needs a checkpointer).
  bool watchdog_auto_recover = true;

  // ----- Tenancy ----------------------------------------------------------
  // Quota applied to tenants without an explicit entry (and to the
  // anonymous default session behind ShardedDriver::Ingest).
  TenantQuota default_quota;
  std::map<std::string, TenantQuota> tenant_quotas;

  // Parses an overflow-policy name (block | drop | shed | shed-oldest |
  // degrade). Returns false on an unknown name, leaving *policy untouched.
  static bool ParseOverflow(const std::string& name, OverflowPolicy* policy);
  static const char* OverflowName(OverflowPolicy policy);

  // Parses an async-mode policy name (off | degrade-only). Returns
  // false on an unknown name, leaving *policy untouched.
  static bool ParseAsyncMode(const std::string& name, AsyncModePolicy* policy);
  static const char* AsyncModeName(AsyncModePolicy policy);

  // Parses a quota spec "rate[:burst[:total]]" (e.g. "5000", "5000:20000",
  // "0:0:1000000"). Returns false with *error set on a malformed spec.
  static bool ParseQuota(const std::string& spec, TenantQuota* quota, std::string* error);

  // Registers the canonical driver flag surface on `args` (shards,
  // batch-size, flush-ms, max-pending-batches, overflow, coalesce,
  // bg-compaction, fast-path, async-mode, checkpoint-dir, checkpoint-every,
  // scrub-interval-s, quarantine-dir, max-batch-edges, watchdog-ms,
  // default-quota, tenant-quotas). Binaries add their own non-driver flags
  // around it.
  static void RegisterFlags(ArgParser& args);

  // Reads the registered flags back into *this. Returns false with *error
  // holding an actionable message (which flag, what it got, what it takes).
  bool FromCli(const ArgParser& args, std::string* error);

  // Cross-field validation. Returns the empty string when the config is
  // usable, else one actionable message naming the offending field.
  // Shedding and scrubbing need durability: checkpoint_dir here; the
  // driver validates with durable = (a Checkpointer is attached) and does
  // not read checkpoint_dir itself.
  std::string Validate() const { return Validate(!checkpoint_dir.empty()); }
  std::string Validate(bool durable) const;

  // The quota for `tenant`: its explicit entry, else default_quota.
  TenantQuota QuotaFor(const std::string& tenant) const {
    const auto it = tenant_quotas.find(tenant);
    return it != tenant_quotas.end() ? it->second : default_quota;
  }
};

}  // namespace graphbolt

#endif  // SRC_SHARD_DRIVER_CONFIG_H_

// Execution statistics reported by every engine. The Figure 6 / Table 7
// benches compare `edges_processed` between GraphBolt and GB-Reset; the
// timing tables read `seconds`.
//
// Lifecycle contract (identical across all four engines): every
// InitialCompute/ApplyMutations call starts by calling Clear(), so stats()
// always describes the *most recent* call only — the fields never
// accumulate across calls. ApplyMutations times the structural mutation
// first, then clears, then assigns `mutation_seconds`, so the mutation
// timing of the current batch is never lost to its own Clear().
//
// The driver (src/shard/sharded_driver.h) reports through the same
// struct but with the opposite lifecycle: its stats are *cumulative* over
// the driver's lifetime (engine fields summed across applied batches,
// driver fields counted since construction). Bare engines leave the driver
// block zero.
#ifndef SRC_ENGINE_STATS_H_
#define SRC_ENGINE_STATS_H_

#include <cstdint>

namespace graphbolt {

struct EngineStats {
  // Edge computations (contribution evaluations) in the most recent
  // compute/refine call.
  uint64_t edges_processed = 0;
  // Iterations executed (refined levels + continuation iterations).
  uint32_t iterations = 0;
  // Wall-clock seconds of the most recent compute/refine call, excluding
  // graph-structure mutation time (reported separately, as in the paper).
  double seconds = 0.0;
  // Wall-clock seconds spent applying the structural mutation.
  double mutation_seconds = 0.0;

  // ----- Scheduler counters (TaskArena deltas over the most recent call;
  // cumulative across batches under the driver, like everything above) ----
  // Closures pushed into a work-stealing deque during the call.
  uint64_t tasks_forked = 0;
  // Deque pops that crossed threads (load imbalance actually corrected).
  uint64_t tasks_stolen = 0;
  // Loops/forks that ran serially on the caller (range at or below grain,
  // or a serial arena).
  uint64_t inline_runs = 0;
  // Closures pushed into the arena's priority lane (async delta rounds).
  uint64_t tasks_priority = 0;

  // ----- Driver-level counters (populated by the driver only) -------------
  // Batches handed to the engine's ApplyMutations by the worker.
  uint64_t batches_applied = 0;
  // Individual mutations accepted by Ingest/IngestBatch.
  uint64_t mutations_enqueued = 0;
  // Mutations removed by gutter coalescing (superseded by a later mutation
  // of the same (src, dst) pair within one flush, matching the last-wins
  // semantics of MutableGraph::NormalizeBatch).
  uint64_t mutations_coalesced = 0;
  // Mutations discarded without reaching the engine: ingested after Stop(),
  // or shed by the kDropNewest overflow policy.
  uint64_t mutations_dropped = 0;
  // Producer wall-clock seconds spent blocked on bounded-queue
  // backpressure (summed across producers).
  double queue_wait_seconds = 0.0;
  // Seconds from a batch leaving the gutter to its application completing
  // (summed across batches; divide by batches_applied for the mean).
  double flush_latency_seconds = 0.0;

  // ----- Durability counters (populated when a Checkpointer is attached) ---
  // Checkpoints committed (cadence, forced, explicit, and post-recovery).
  uint64_t checkpoints_written = 0;
  // Checkpoint write attempts beyond the first (retry-with-backoff).
  uint64_t checkpoint_retries = 0;
  // Checkpoints abandoned after the retry budget was exhausted.
  uint64_t checkpoint_failures = 0;
  // Wall-clock seconds spent writing checkpoints.
  double checkpoint_seconds = 0.0;
  // Write-ahead-log records committed / append attempts beyond the first.
  uint64_t wal_appends = 0;
  uint64_t wal_retries = 0;
  // Mutations parked in the shed log by the kShedToWal overflow policy (or
  // by flushes against a crashed worker), and the batches re-applied from
  // it at a query barrier or recovery.
  uint64_t mutations_shed_to_wal = 0;
  uint64_t shed_batches_replayed = 0;
  // Successful Recover() calls, and the WAL/shed batches they re-applied.
  uint64_t recoveries = 0;
  uint64_t batches_replayed = 0;
  // Durable writes abandoned fatal-fast because the disk reported ENOSPC
  // (retrying a full disk only burns the backoff budget).
  uint64_t enospc_aborts = 0;
  // WAL scans (replay or scrub) that hit a torn/corrupt record and
  // truncated the lineage back to its last checksummed boundary.
  uint64_t wal_corruptions_detected = 0;
  // Background scrub passes over the durability artifacts, and the
  // corrupt artifacts they found (quarantined checkpoints, healed WALs).
  uint64_t scrub_passes = 0;
  uint64_t scrub_corruptions = 0;

  // ----- Background-compaction counters (populated by the driver when the
  // engine exposes its MutableGraph; mirrors SlackCsr::CompactionStats
  // summed over both adjacency views) ---------------------------------------
  // MaintenanceStep invocations that found compaction work to do.
  uint64_t maintenance_steps = 0;
  // Shadow-arena rewrites completed and flipped in (the overlap metric:
  // compaction work that never ran inside an ApplyBatch).
  uint64_t background_compactions = 0;
  // Edges copied into shadow arenas by maintenance steps.
  uint64_t background_compaction_edges = 0;
  // kBackground-mode batches that still compacted synchronously because
  // slack hit the kForcedSyncSlack backstop (0 when maintenance keeps up).
  uint64_t forced_sync_compactions = 0;
  // The adaptive per-tick compaction budget currently in force (edges); a
  // fixed starting budget until idle-window measurements accumulate, then
  // derived from observed idle time and per-edge cost.
  uint64_t maintenance_budget_edges = 0;

  // ----- Sentinel counters (populated by the driver when admission
  // control / quarantine / watchdog are configured) --------------------------
  // Batches refused by admission control and parked in the dead-letter WAL,
  // and the individual mutations they carried.
  uint64_t batches_quarantined = 0;
  uint64_t mutations_quarantined = 0;
  // ReplayQuarantine outcomes: batches re-admitted into the stream vs.
  // discarded by the operator's fix-up (or re-quarantined as still-poison).
  uint64_t quarantine_replayed = 0;
  uint64_t quarantine_discarded = 0;
  // Batches evicted from the pending queue by the kShedOldest policy.
  uint64_t shed_oldest_evictions = 0;
  // Times the admission governor switched the driver into degraded mode,
  // and queries answered from the last consistent snapshot while degraded.
  uint64_t degraded_entries = 0;
  uint64_t degraded_queries = 0;
  // Pipeline-stage stalls the watchdog declared, and the automatic
  // Recover() runs it drove to completion.
  uint64_t stalls_detected = 0;
  uint64_t watchdog_recoveries = 0;
  // The governor's current apply-latency estimate (EWMA seconds); 0 until
  // the first batch applies.
  double apply_ewma_seconds = 0.0;

  // ----- Async-mode counters (populated by the drivers when the Maiter
  // async tier is engaged under kDegrade; see INTERNALS §12) ----------------
  // Times an eligible engine was flipped from BSP into async mode.
  uint64_t async_entries = 0;
  // Bounded priority-ordered delta-propagation rounds executed.
  uint64_t async_steps = 0;
  // Mutation batches applied barrier-free while in async mode.
  uint64_t async_applies = 0;
  // Reconciling barriers that restored bitwise-deterministic BSP state.
  uint64_t async_reconciles = 0;
  // The engine's convergence residual after the most recent async step or
  // apply (0 when converged or not in async mode).
  double async_residual = 0.0;
  // Degraded queries served from continuously-updating async values
  // (subset of degraded_queries; the rest served frozen BSP snapshots).
  uint64_t async_fresh_queries = 0;

  // ----- Lane/session counters (populated by the driver only) ---------------
  // Ingestion lanes the driver runs (DriverConfig::shards).
  uint64_t shard_lanes = 0;
  // Batches lane workers promoted into the global engine.
  uint64_t shard_batches_staged = 0;
  // Always 0: the driver keeps one journal (wal_appends), no per-lane
  // copies. Kept only because the benchmark harness still reports it.
  uint64_t shard_wal_appends = 0;
  // Mutations whose endpoints are owned by different shards (routed to the
  // source's owner; see src/shard/sharded_driver.h).
  uint64_t cross_shard_mutations = 0;
  // Session handles handed out by OpenSession.
  uint64_t sessions_opened = 0;
  // Admissions refused by per-tenant quotas (token bucket or lifetime cap).
  uint64_t mutations_quota_rejected = 0;
  uint64_t batches_quota_rejected = 0;

  // ----- Fast-path counters (populated when the single-update fast path is
  // enabled; see src/driver/fast_path.h) ------------------------------------
  // Mutations classified safe and applied in place, bypassing the gutter.
  uint64_t fastpath_safe_applied = 0;
  // Mutations classified unsafe and escalated into the gutter as a
  // refinement micro-batch.
  uint64_t fastpath_unsafe_escalated = 0;
  // Fast-path epoch increments (one per safe apply); PrepQuery observes the
  // epoch to keep served snapshots prefix-consistent with safe applies.
  uint64_t fastpath_epoch_flips = 0;

  // ----- Adaptive apply (mirrored from MutableGraph by the drivers) --------
  // Batches whose normalized impact crossed the rebuild threshold and were
  // applied by a full arena rebuild instead of per-vertex splicing.
  uint64_t adaptive_rebuilds = 0;

  void Clear() { *this = EngineStats{}; }
};

}  // namespace graphbolt

#endif  // SRC_ENGINE_STATS_H_

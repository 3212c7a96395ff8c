// ShardedDriver: the pipelined, multi-lane, multi-tenant ingestion front-end
// that turns a synchronous batch engine into a streaming service. It is the
// only driver: StreamDriver<E> (src/driver/stream_driver.h) names this class,
// and the default DriverConfig{} is its one-lane shape.
//
//   sessions ──route by src──► lane gutter ──flush──► lane queue ──► lane
//   (tenant quota gate)        (batch by size          (backpressure) worker
//                               or staleness)                         promotes
//                                                                     every
//                                                                     lane's head
//
// Lanes. The vertex space is partitioned shard_of(v) = v % N over
// DriverConfig::shards lanes. Each lane owns a gutter, a bounded queue, and a
// worker thread. A lane worker waits until its queue holds a flushed batch,
// takes the engine mutex, pops the head of every live lane's queue in lane
// order, and *promotes* their concatenation into the global engine as one
// batch: one sequence number, one WAL record, one refinement (GraphBolt's
// batch amortization, §4.1). Promotion is serialized (the engines are
// synchronous BSP refiners and cannot apply concurrently) and queue heads
// leave only under the engine mutex, so each lane's batches promote in queue
// order and the engine-lock acquisition order IS the global apply order; an
// observer hook (set_apply_observer) records it. Every mutation is routed by
// its source vertex, so all mutations of one (src, dst) pair traverse the
// same lane in ingest order, and lanes own disjoint sources, so a fused
// promotion keeps every pair's order: the engine sees a legal interleaving of
// the producers' streams. The queue bound is the backpressure: when
// refinement falls behind, producers block inside the flush (kBlock) or the
// overflow policy diverts the batch, so memory stays bounded.
//
// Producers open a Session (OpenSession(tenant_id)) whose tenant quota —
// token bucket + lifetime cap, shared across all sessions of the tenant
// (src/shard/session.h) — gates admission whole-batch-or-nothing *after* the
// sentinel's content screen and *before* any lane lock. The driver's own
// Ingest/IngestFast/IngestBatch use an implicit default session (tenant "",
// default_quota).
//
// PrepQuery is the query barrier. Phase 1 flushes every lane's gutter into
// its queue; phase 2 waits until every lane's in-flight count reaches zero;
// then batches parked in the shed log replay in shed-sequence order. On
// return values() is an exact BSP snapshot of the admitted stream (what a
// from-scratch run on the current graph would produce). When nothing is
// buffered, in flight, or shed the barrier is a cached-query fast path: one
// lock per lane, no waiting. Stop() (also the destructor) drains: ingestion
// closes, gutter remainders flush, the workers apply everything queued and
// join. Mutations ingested after Stop are counted dropped, never lost
// silently.
//
// Durability (src/fault/). Pass a Checkpointer to the constructor and every
// promotion is journaled to its write-ahead log immediately before the apply
// (under the engine mutex, so WAL order == apply order), with snapshots at
// the checkpointer's cadence. Recover() restores the newest valid
// checkpoint, replays the WAL tail, the batches still queued in any lane, and
// the shed log, and restarts every lane; with a single producer the restored
// values are bitwise identical to a fault-free run, and a driver of any lane
// count restores the checkpoints of any other. A WAL append that fails past
// its retry budget forces an immediate checkpoint. The checkpointer's journal
// is the only one: promotion is serialized, so one global log records the
// one apply order at every lane count.
//
// Sentinel (src/sentinel/).
//   - Admission: a non-empty quarantine_dir screens every ingested mutation
//     and batch before any driver lock and parks rejects bitwise-intact in a
//     dead-letter WAL (ReplayQuarantine re-admits them after fix-up).
//   - Shedding (kShedToWal / kShedOldest): every lane sheds into the ONE
//     sequence-tagged shed log, replayed behind the barrier in one
//     deterministic global order.
//   - Degrade (kDegrade): one AdmissionGovernor sees every lane's apply
//     latency and the total queued depth. While it reports overload a lane
//     whose queue is full leaves the batch coalescing in its gutter and
//     PrepQuery serves the last consistent snapshot (degraded()).
//   - Watchdog: per-lane stage heartbeats feed one StallWatchdog. A stalled
//     lane is released locally — its worker sheds the in-hand batch and
//     resumes — and, with auto-recovery and a checkpointer, the verdict
//     escalates to Recover().
//   - Worker kill (FaultSite::kWorkerKill, tests only): the killed lane's
//     queue closes so producers shed or drop instead of blocking, healthy()
//     turns false, and PrepQuery returns a stale snapshot instead of waiting
//     on the dead lane until Recover() restarts it.
//
// Ordering: mutations from one producer are applied in ingest order.
// Mutations racing on different producers have no defined global order —
// whole batches may interleave — which is indistinguishable from some legal
// arrival order. Shed batches lose their place in the stream: they re-enter
// at the next barrier or recovery, after batches flushed later.
//
// The engine is never accessed concurrently. QuerySnapshot() is safe at any
// time from any thread; values() returns a reference into the engine and is
// meant for quiescent callers (after PrepQuery returns and while no other
// producer can trigger a flush).
#ifndef SRC_SHARD_SHARDED_DRIVER_H_
#define SRC_SHARD_SHARDED_DRIVER_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/streaming_engine.h"
#include "src/driver/fast_path.h"
#include "src/driver/gutter_buffer.h"
#include "src/driver/maintenance_budget.h"
#include "src/engine/stats.h"
#include "src/fault/checkpoint.h"
#include "src/fault/fault_injector.h"
#include "src/graph/mutable_graph.h"
#include "src/graph/mutation.h"
#include "src/parallel/bounded_queue.h"
#include "src/parallel/task_arena.h"
#include "src/sentinel/admission.h"
#include "src/sentinel/quarantine.h"
#include "src/sentinel/watchdog.h"
#include "src/shard/driver_config.h"
#include "src/shard/session.h"
#include "src/util/logging.h"
#include "src/util/timer.h"

namespace graphbolt {

template <StreamingEngine Engine>
class ShardedDriver {
 public:
  using Value = EngineValueT<Engine>;
  // The StreamDriver<E>::Options / ::OverflowPolicy spellings.
  using Options = DriverConfig;
  using OverflowPolicy = ::graphbolt::OverflowPolicy;
  // Called under the journal serialization immediately before each
  // promotion, in global apply order: (lane, the batch as applied). A fused
  // promotion is reported once, whole, with the promoting worker's lane.
  // Shed replays report the pseudo-lane lanes_.size(); fast-path safe
  // applies report lanes_.size() + 1 (they bypass the lanes entirely).
  using ApplyObserver = std::function<void(size_t lane, const MutationBatch& batch)>;

  // The producer handle: a movable, non-copyable capability to ingest as
  // one tenant. All sessions of a tenant share quota state; the handle
  // borrows it and must not outlive the driver.
  class Session {
   public:
    Session() = default;
    Session(Session&& other) noexcept
        : driver_(other.driver_), state_(other.state_) {
      other.driver_ = nullptr;
      other.state_ = nullptr;
    }
    Session& operator=(Session&& other) noexcept {
      driver_ = other.driver_;
      state_ = other.state_;
      other.driver_ = nullptr;
      other.state_ = nullptr;
      return *this;
    }
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    bool valid() const { return driver_ != nullptr; }
    const std::string& tenant() const { return state_->tenant(); }

    // Thread-safe. False when the quota gate, the admission screen, or a
    // stopped driver refused the mutation.
    bool Ingest(const EdgeMutation& mutation) {
      return driver_->IngestFor(state_, mutation);
    }

    // Single-update fast path (config.fast_path; see IngestFast on the
    // driver): safe mutations splice in place past the lane gutters, unsafe
    // ones escalate into the owning lane. Same quota and screening gates as
    // Ingest.
    bool IngestFast(const EdgeMutation& mutation) {
      return driver_->IngestFastFor(state_, mutation);
    }

    // Whole-batch quota admission, then per-lane routing. Returns how many
    // mutations entered the pipeline (0 on a quota or screen rejection).
    size_t IngestBatch(const MutationBatch& batch) {
      return driver_->IngestBatchFor(state_, batch);
    }

    // This tenant's cumulative quota accounting.
    TenantStats stats() const { return state_->stats(); }

   private:
    friend ShardedDriver;
    Session(ShardedDriver* driver, TenantState* state)
        : driver_(driver), state_(state) {}

    ShardedDriver* driver_ = nullptr;
    TenantState* state_ = nullptr;
  };

  // The engine must outlive the driver and already hold the initial
  // snapshot: run engine->InitialCompute() before ingesting (and
  // CheckpointNow() after it, so a crash before the first cadence
  // checkpoint still has a baseline to recover from). `checkpointer`, when
  // given, is the durability authority and arms Recover(); the fault
  // injector (test-only, a no-op unless compiled with
  // GRAPHBOLT_FAULT_INJECTION=1) arms the lane queues and the sentinel
  // sites. Neither is owned. An attached checkpointer counts as durability
  // for DriverConfig::Validate, so shedding and scrubbing need no
  // checkpoint_dir here.
  explicit ShardedDriver(Engine* engine, DriverConfig config = {},
                         Checkpointer<Engine>* checkpointer = nullptr,
                         FaultInjector* fault_injector = nullptr)
      : engine_(engine),
        config_(std::move(config)),
        governor_(config_.governor),
        checkpointer_(checkpointer),
        injector_(fault_injector) {
    const std::string invalid = config_.Validate(/*durable=*/checkpointer_ != nullptr);
    GB_CHECK(invalid.empty()) << "DriverConfig: " << invalid;
    if (config_.background_compaction) {
      if constexpr (GraphMaintainableEngine<Engine>) {
        engine_->mutable_graph()->SetCompactionMode(SlackCsr::CompactionMode::kBackground);
      } else {
        GB_LOG(kWarning) << "background_compaction requested but the engine "
                            "does not expose its graph; staying synchronous";
        config_.background_compaction = false;
      }
    }
    if (!config_.quarantine_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(config_.quarantine_dir, ec);
      quarantine_ = std::make_unique<Quarantine>(
          config_.quarantine_dir, injector_,
          checkpointer_ != nullptr ? checkpointer_->env() : nullptr);
    }
    lanes_.reserve(config_.shards);
    for (size_t i = 0; i < config_.shards; ++i) {
      lanes_.push_back(std::make_unique<Lane>(i, config_.max_pending_batches));
      lanes_.back()->queue.ArmFaultInjector(injector_);
    }
    default_tenant_ = TenantStateFor(std::string());
    stats_.shard_lanes = lanes_.size();
    // One heartbeat slot per (lane, stage); sized before the first worker
    // can heartbeat.
    watchdog_.SetLanes(lanes_.size());
    StartLanes();
    StartWatchdog();
  }

  ~ShardedDriver() { Stop(); }

  ShardedDriver(const ShardedDriver&) = delete;
  ShardedDriver& operator=(const ShardedDriver&) = delete;

  size_t shards() const { return lanes_.size(); }
  const DriverConfig& config() const { return config_; }

  // Opens (or re-opens) a session for `tenant`. Sessions of one tenant
  // share quota state, so a tenant cannot widen its allowance by opening
  // more of them.
  Session OpenSession(const std::string& tenant) {
    TenantState* state = TenantStateFor(tenant);
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.sessions_opened;
    }
    return Session(this, state);
  }

  // The default session's surface. Thread-safe. Ingest blocks only when a
  // flush hits a full queue under kBlock; it returns false (the mutation
  // counted dropped or quarantined) after Stop() or on a failed screen.
  bool Ingest(const EdgeMutation& mutation) { return IngestFor(default_tenant_, mutation); }

  // Single-update fast path (config.fast_path; see src/driver/fast_path.h
  // and INTERNALS §11). Screens the mutation like Ingest, then asks the
  // engine to classify it against its dependency state:
  //
  //   safe    journaled at the next global sequence number and spliced into
  //           the graph in place — no gutter, no flush, no barrier, and no
  //           engine_mu_: classify and splice serialize through journal_mu_
  //           alone (against promotions, maintenance, checkpoints, and each
  //           other).
  //   unsafe  escalated into the owning lane as a refinement micro-batch
  //           (counted fastpath_unsafe_escalated).
  //
  // When the journal mutex is contended the mutation escalates rather than
  // blocking: the fast path never waits on batch-scale work. With fast_path
  // off or an engine that cannot classify, this is exactly Ingest.
  bool IngestFast(const EdgeMutation& mutation) {
    return IngestFastFor(default_tenant_, mutation);
  }

  // Ingests a pre-built batch, routed per lane (flush boundaries still
  // follow batch_size). Returns how many mutations were accepted; 0 with
  // the whole batch quarantined when admission control rejects it.
  size_t IngestBatch(const MutationBatch& batch) {
    return IngestBatchFor(default_tenant_, batch);
  }

  // Hands every lane's gutter remainder to its worker.
  void Flush() {
    for (auto& lane : lanes_) {
      std::unique_lock<std::mutex> lock(lane->mu);
      FlushLaneLocked(*lane, lock);
    }
  }

  // The query barrier (see the header comment): flush every lane, drain
  // them, replay the shed log, and repeat until nothing is shed (a producer
  // racing the barrier may shed behind the drain). Returns false on the
  // cached-query fast path (the previous snapshot is still current). Under
  // kDegrade with the governor reporting overload it serves the last
  // consistent snapshot immediately instead. On a driver with a killed lane
  // it returns at once with a stale snapshot; check healthy() and call
  // Recover().
  bool PrepQuery() {
    bool idle = true;
    for (auto& lane : lanes_) {
      std::lock_guard<std::mutex> lock(lane->mu);
      if (!lane->gutter.empty() || lane->in_flight != 0) {
        idle = false;
        break;
      }
    }
    // An async-engaged engine holds eventually-consistent values, not an
    // exact BSP snapshot, so "still current" would be a lie: force the
    // reconciling barrier instead.
    if (idle && !async_engaged_.load(std::memory_order_acquire) && shed_batches_.load() == 0) {
      return false;
    }
    if (config_.overflow == OverflowPolicy::kDegrade && degraded()) {
      // Degraded serve: whole batches promote under engine_mu_, so in BSP
      // mode the engine state is the exact fixpoint of *some* prefix of the
      // admitted stream — stale, never inconsistent. With the async tier
      // engaged the served values instead update continuously (eventually
      // consistent; stats().async_residual bounds the distance to the fixed
      // point). Use QuerySnapshot() to read either race-free. Clears on its
      // own once pressure recedes on every lane.
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.degraded_queries;
      if (async_engaged_.load(std::memory_order_acquire)) {
        ++stats_.async_fresh_queries;
      }
      return true;
    }
    for (;;) {
      if (AnyLaneDead()) {
        GB_LOG(kWarning) << "PrepQuery on a driver with a dead lane: snapshot is stale; "
                            "Recover() first";
        return true;
      }
      for (auto& lane : lanes_) {
        std::unique_lock<std::mutex> lock(lane->mu);
        FlushLaneLocked(*lane, lock, /*allow_refill=*/false);
      }
      for (auto& lane : lanes_) {
        std::unique_lock<std::mutex> lock(lane->mu);
        lane->drained_cv.wait(lock, [&] { return lane->in_flight == 0 || lane->dead; });
      }
      if (AnyLaneDead()) {
        GB_LOG(kWarning) << "a lane died during the query barrier; Recover() first";
        return true;
      }
      if constexpr (AsyncDeltaEngine<Engine>) {
        if (async_engaged_.load(std::memory_order_acquire)) {
          // The barrier promises an exact BSP snapshot: reconcile, then
          // re-run the flush/drain loop (a producer may have raced in while
          // the engine recomputed).
          {
            std::lock_guard<std::mutex> engine_lock(engine_mu_);
            ReconcileAsync();
          }
          continue;
        }
      }
      if (shed_batches_.load() == 0) {
        return true;
      }
      ReplayShed();  // the global replay barrier
    }
  }

  // Barrier + reference to the engine's values. The reference is an exact
  // BSP snapshot at return; it stays valid but may be rewritten once
  // another producer triggers a flush — see the header comment.
  const std::vector<Value>& values() {
    PrepQuery();
    return engine_->values();
  }

  // Barrier + copy, safe under concurrent ingestion from other threads.
  // engine_mu_ excludes every value write; fast-path splices, which hold
  // only journal_mu_, write the graph and never the values.
  std::vector<Value> QuerySnapshot() {
    PrepQuery();
    std::lock_guard<std::mutex> engine_lock(engine_mu_);
    return engine_->values();
  }

  // Cumulative driver statistics (see stats.h: engine fields are summed
  // over applied batches; driver fields count since construction; the
  // durability block merges in the checkpointer's counters).
  EngineStats stats() const {
    EngineStats snapshot;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      snapshot = stats_;
    }
    for (const auto& lane : lanes_) {
      std::lock_guard<std::mutex> lock(lane->mu);
      snapshot.mutations_enqueued += lane->enqueued;
      snapshot.mutations_dropped += lane->dropped;
      snapshot.cross_shard_mutations += lane->cross_shard;
    }
    {
      std::lock_guard<std::mutex> lock(governor_mu_);
      snapshot.apply_ewma_seconds = governor_.apply_ewma_seconds();
      snapshot.degraded_entries = governor_.degraded_entries();
    }
    if (checkpointer_ != nullptr) {
      checkpointer_->MergeStats(&snapshot);
    }
    snapshot.fastpath_safe_applied = fast_counters_.safe_applied.load(std::memory_order_relaxed);
    snapshot.fastpath_unsafe_escalated =
        fast_counters_.unsafe_escalated.load(std::memory_order_relaxed);
    return snapshot;
  }

  // False while a lane is dead (killed by fault injection, until Recover())
  // or after the watchdog declared a lane stalled, until that lane's local
  // release (shed the in-hand batch, resume) or a Recover() completes.
  bool healthy() const {
    if (AnyLaneDead()) {
      return false;
    }
    std::lock_guard<std::mutex> lock(stats_mu_);
    return healthy_;
  }

  // True while the governor has the driver in degraded mode (overload):
  // under kDegrade, PrepQuery serves the last consistent snapshot instead
  // of blocking on the barrier.
  bool degraded() const {
    std::lock_guard<std::mutex> lock(governor_mu_);
    return governor_.degraded();
  }

  // Mutations buffered across all lane gutters (not yet flushed).
  size_t pending_mutations() const {
    size_t pending = 0;
    for (const auto& lane : lanes_) {
      std::lock_guard<std::mutex> lock(lane->mu);
      pending += lane->gutter.size();
    }
    return pending;
  }

  // Registers the promotion-order observer. Call before ingestion starts;
  // the hook runs under the journal mutex, so keep it cheap.
  void set_apply_observer(ApplyObserver observer) {
    std::lock_guard<std::mutex> engine_lock(engine_mu_);
    std::lock_guard<std::mutex> journal_lock(journal_mu_);
    observer_ = std::move(observer);
  }

  // The dead-letter quarantine; null unless config.quarantine_dir was set.
  // Inspect parked batches with quarantine()->ForEach.
  Quarantine* quarantine() { return quarantine_.get(); }
  uint64_t quarantined_batches() const {
    return quarantine_ != nullptr ? quarantine_->parked_batches() : 0;
  }

  // Drains the quarantine through `fixup(RejectReason, MutationBatch&)`.
  // fixup repairs the batch in place and returns true to re-admit it — the
  // batch is re-screened, so a still-poison batch goes straight back to
  // quarantine — or false to discard it. Re-admission goes through the
  // default session. Returns the number of parked batches fed to fixup.
  template <typename Fixup>
  size_t ReplayQuarantine(Fixup&& fixup) {
    if (quarantine_ == nullptr) {
      return 0;
    }
    return quarantine_->Drain([&](RejectReason reason, MutationBatch&& batch) {
      if (!fixup(reason, batch)) {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.quarantine_discarded;
        stats_.mutations_dropped += batch.size();
        return;
      }
      const size_t accepted = IngestBatch(batch);
      if (accepted > 0 || batch.empty()) {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.quarantine_replayed;
      }
    });
  }
  size_t ReplayQuarantine() {
    return ReplayQuarantine([](RejectReason, MutationBatch&) { return true; });
  }

  // Writes a checkpoint of the current engine state immediately — the
  // baseline right after InitialCompute, or an explicit save point.
  bool CheckpointNow() {
    if constexpr (CheckpointableEngine<Engine>) {
      if (checkpointer_ == nullptr) {
        return false;
      }
      std::lock_guard<std::mutex> engine_lock(engine_mu_);
      std::lock_guard<std::mutex> journal_lock(journal_mu_);
      // Lane 0's slot; every kCheckpoint scope runs under engine_mu_, so no
      // two share a slot at once.
      StallWatchdog::StageScope stage(&watchdog_, PipelineStage::kCheckpoint);
      return checkpointer_->WriteCheckpoint(applied_seq_);
    } else {
      return false;
    }
  }

  // Crash recovery. Stops every lane and joins the workers (a worker parked
  // in an injected stall observes stall_abort_, sheds its in-hand batch,
  // and exits), restores the newest valid checkpoint from disk, replays the
  // WAL tail past it, promotes the batches still queued in any lane (process
  // memory, not crash casualties — applied in lane order, a legal
  // interleaving), drains the shed log in shed-sequence order, and restarts
  // every lane. Queued-then-shed is the stream order: shedding only starts
  // once a queue is full or closed. Works on a live driver whose lane died
  // and as cold-start recovery on a freshly constructed graph/engine/driver
  // (no InitialCompute needed), with any lane count against any other's
  // directory. Always restores from disk, so the persisted path is the one
  // being trusted. Returns false (lanes restarted, engine state left as-is)
  // when no valid checkpoint exists.
  bool Recover() {
    if constexpr (!CheckpointableEngine<Engine>) {
      GB_LOG(kError) << "Recover() requires a CheckpointableEngine";
      return false;
    } else {
      std::lock_guard<std::mutex> stop_lock(stop_mu_);
      if (checkpointer_ == nullptr) {
        GB_LOG(kError) << "Recover() without a Checkpointer";
        return false;
      }
      Timer wall;
      // Queue leftovers, preserved per lane in pop order. Lane order is a
      // legal global order: the batches were concurrent at the crash.
      auto preserved = HaltLanes(/*flush_gutters=*/false);
      bool restored = false;
      bool applied_preserved = false;
      uint64_t replayed_wal = 0;
      uint64_t replayed_shed = 0;
      uint64_t recovered_seq = 0;
      {
        std::lock_guard<std::mutex> engine_lock(engine_mu_);
        if constexpr (AsyncDeltaEngine<Engine>) {
          // WAL replay goes through BSP ApplyMutations: a crash inside an
          // async window reconciles first. The reconcile force-checkpoints,
          // so the reconciled fixpoint is the newest restore point.
          ReconcileAsync();
        }
        bool can_absorb = false;
        {
          // journal_mu_ fences out concurrent fast-path splices while the
          // engine is rebuilt from disk (ApplyJournaled re-takes it below).
          std::lock_guard<std::mutex> journal_lock(journal_mu_);
          uint64_t ckpt_seq = 0;
          restored = checkpointer_->RestoreLatest(&ckpt_seq);
          if (restored) {
            applied_seq_ = ckpt_seq;
            // The tail was journaled with its final sequence numbers: it
            // replays without re-journaling or cadence checkpoints.
            replayed_wal = checkpointer_->ReplayWal(
                applied_seq_, [&](uint64_t seq, MutationBatch&& batch) {
                  engine_->ApplyMutations(batch);
                  applied_seq_ = seq;
                });
          }
          // Restored state — or live in-memory state left at a batch
          // boundary by the kill — can absorb the not-yet-applied
          // remainder. A cold start without any valid checkpoint cannot
          // (the engine was never initialized), so the shed log stays
          // parked for a later attempt.
          can_absorb = restored || applied_seq_ > 0;
        }
        if (can_absorb) {
          // Preserved and shed batches are promoting for the FIRST time, so
          // the observer sees them (the WAL tail above re-promotes
          // already-observed batches and stays silent): an observer-recorded
          // stream stays an exactly-once record across recovery.
          for (auto& [lane_index, item] : preserved) {
            ApplyJournaled(item.batch, lane_index);
          }
          applied_preserved = true;
          replayed_shed = checkpointer_->DrainShed(
              [&](MutationBatch&& batch) { ApplyJournaled(batch, lanes_.size()); });
        }
        std::lock_guard<std::mutex> journal_lock(journal_mu_);
        if (restored) {
          // Fresh checkpoint at the recovered frontier: the next crash
          // recovers from here.
          checkpointer_->WriteCheckpoint(applied_seq_);
        }
        // Snapshot for the log line: once the lanes respawn they advance
        // applied_seq_ under journal_mu_, which the logging does not hold.
        recovered_seq = applied_seq_;
      }
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        // A watchdog escalation reports healthy only once it has counted
        // this recovery (OnStall).
        healthy_ = !escalating_;
        // Subtract only what DrainShed actually replayed: a producer racing
        // recovery may shed after the drain, and that batch must stay
        // counted or the next barrier would never replay it.
        const size_t shed = shed_batches_.load();
        shed_batches_.store(shed - std::min(shed, static_cast<size_t>(replayed_shed)));
        if (applied_preserved) {
          // First-time applies (queued + shed) count as applied; WAL-tail
          // re-applications only as replayed.
          stats_.batches_applied += preserved.size() + replayed_shed;
        } else {
          for (const auto& [lane_index, item] : preserved) {
            stats_.mutations_dropped += item.batch.size();
          }
        }
        if (restored) {
          ++stats_.recoveries;
          stats_.batches_replayed += replayed_wal + replayed_shed;
          stats_.shed_batches_replayed += replayed_shed;
        }
      }
      stall_abort_.store(false);
      for (size_t i = 0; i < lanes_.size(); ++i) {
        Lane& lane = *lanes_[i];
        lane.queue.Reset();
        lane.stall_abort.store(false);
        size_t from_lane = 0;
        for (const auto& [lane_index, item] : preserved) {
          from_lane += lane_index == i ? 1 : 0;
        }
        std::lock_guard<std::mutex> lock(lane.mu);
        lane.ReleaseInFlight(from_lane);
        lane.dead = false;
        lane.accepting = true;
      }
      StartLanes();
      stopped_ = false;
      // Restart the watchdog after a Stop()-then-Recover() revival. No-op
      // when it is already running — including when this very call runs
      // *on* the watchdog thread (auto-recovery).
      StartWatchdog();
      if (restored) {
        GB_LOG(kInfo) << "recovered to batch " << recovered_seq << " (" << replayed_wal
                      << " WAL, " << preserved.size() << " queued, " << replayed_shed
                      << " shed batches replayed) in " << wall.Millis() << " ms";
      }
      return restored;
    }
  }

  // Sequence number of the newest batch promoted through the journal — the
  // durable frontier. After Recover() it is exactly the number of batches
  // the recovered state contains, which is what the crash harness diffs
  // against a fresh prefix run.
  uint64_t applied_seq() {
    std::lock_guard<std::mutex> lock(journal_mu_);
    return applied_seq_;
  }

  // One synchronous scrub pass (see DriverConfig::scrub_interval_seconds)
  // over the checkpointer's artifacts: checkpoint chain, journal, shed log.
  // Returns corrupt artifacts found (the checkpointer counts them into
  // scrub_corruptions); 0 is a healthy disk or no checkpointer. Only the
  // journal serialization is held, so queries and promotions wait at most
  // one artifact verification.
  uint64_t ScrubNow() {
    if (checkpointer_ == nullptr) {
      return 0;
    }
    std::lock_guard<std::mutex> journal_lock(journal_mu_);
    return checkpointer_->Scrub().corruptions;
  }

  // Drains and shuts down: lanes stop accepting, gutter remainders flush,
  // every queued batch is promoted, workers join, and anything shed
  // replays. Idempotent; called by the destructor. After a lane death the
  // un-applied queue leftovers are parked in the durable shed log
  // (recoverable by a later cold-start Recover) or counted dropped, and
  // nothing replays.
  void Stop() {
    // The watchdog's callback may be inside Recover() — which takes
    // stop_mu_ — so stop it *before* acquiring stop_mu_ or Stop deadlocks
    // behind its own watchdog.
    watchdog_.Stop();
    std::lock_guard<std::mutex> stop_lock(stop_mu_);
    if (stopped_) {
      return;
    }
    for (auto& [lane_index, leftover] : HaltLanes(/*flush_gutters=*/true)) {
      ShedOrDrop(leftover.batch);
      std::lock_guard<std::mutex> lock(lanes_[lane_index]->mu);
      lanes_[lane_index]->ReleaseInFlight();
    }
    if constexpr (AsyncDeltaEngine<Engine>) {
      // The workers have joined, so nothing ticks the mode again: leave the
      // engine reconciled to bitwise-deterministic BSP state (shed replay
      // below and any later barrier go through BSP ApplyMutations).
      std::lock_guard<std::mutex> engine_lock(engine_mu_);
      ReconcileAsync();
    }
    if (!AnyLaneDead() && shed_batches_.load() > 0) {
      ReplayShed();  // the engine is idle: every worker has joined
    }
    stopped_ = true;
  }

 private:
  struct TimedBatch {
    MutationBatch batch;
    Timer since_flush;  // epoch set at flush; read when the promotion ends
  };

  // One ingestion lane: everything shard i owns. The mutex guards the
  // gutter, in_flight, accepting, dead, and the ingest counters; the queue
  // synchronizes itself.
  struct Lane {
    Lane(size_t index, size_t queue_capacity) : index(index), queue(queue_capacity) {}

    const size_t index;
    mutable std::mutex mu;
    std::condition_variable drained_cv;
    GutterBuffer gutter;
    // Batches taken from the gutter but not yet promoted (queued, mid-push,
    // or being applied). The barrier's phase 2 waits for zero.
    size_t in_flight = 0;
    bool accepting = true;
    // Killed by FaultSite::kWorkerKill: the worker exited and the queue is
    // closed until Recover().
    bool dead = false;
    // Ingest-side counters, kept per lane so a routed mutation takes one
    // lock; stats() sums them.
    uint64_t enqueued = 0;
    uint64_t dropped = 0;
    uint64_t cross_shard = 0;
    BoundedQueue<TimedBatch> queue;
    std::thread worker;
    // Lane-local cooperative cancellation: set by the watchdog verdict so
    // a worker parked in an injected stall sheds its in-hand batch and
    // resumes; consumed (reset) by the worker.
    std::atomic<bool> stall_abort{false};

    // Retires `n` batches from in_flight, waking the query barrier at zero.
    // Caller holds mu.
    void ReleaseInFlight(size_t n = 1) {
      in_flight -= std::min(in_flight, n);
      if (in_flight == 0) {
        drained_cv.notify_all();
      }
    }
  };

  size_t ShardOf(VertexId v) const {
    return lanes_.size() == 1 ? 0 : static_cast<size_t>(v) % lanes_.size();
  }

  void StartLanes() {
    for (auto& lane : lanes_) {
      Lane* raw = lane.get();
      raw->worker = std::thread([this, raw] { LaneLoop(*raw); });
    }
  }

  // Stops every lane for Stop() and Recover(): refuses new mutations
  // (first flushing each gutter into its queue when `flush_gutters`),
  // closes the queues, raises the global stall abort — a worker parked in
  // an injected stage stall observes it, sheds its in-hand batch, and
  // exits — and joins the workers. Returns the queue leftovers per lane in
  // pop order; they still count in their lane's in_flight.
  std::vector<std::pair<size_t, TimedBatch>> HaltLanes(bool flush_gutters) {
    for (auto& lane : lanes_) {
      std::unique_lock<std::mutex> lock(lane->mu);
      lane->accepting = false;
      if (flush_gutters) {
        FlushLaneLocked(*lane, lock, /*allow_refill=*/false);
      }
    }
    stall_abort_.store(true);
    for (auto& lane : lanes_) {
      lane->queue.Close();
    }
    for (auto& lane : lanes_) {
      if (lane->worker.joinable()) {
        lane->worker.join();
      }
    }
    std::vector<std::pair<size_t, TimedBatch>> leftovers;
    for (size_t i = 0; i < lanes_.size(); ++i) {
      while (std::optional<TimedBatch> leftover = lanes_[i]->queue.Pop()) {
        leftovers.emplace_back(i, std::move(*leftover));
      }
    }
    return leftovers;
  }

  void StartWatchdog() {
    const double stall = config_.watchdog_stall_seconds;
    if (stall > 0.0 && !watchdog_.running()) {
      // Poll often enough to catch a stall within ~1/16 of its timeout.
      watchdog_.Start({std::min(0.05, stall / 16), stall},
                      [this](const StallCause& cause) { OnStall(cause); });
    }
  }

  bool AnyLaneDead() const {
    for (const auto& lane : lanes_) {
      std::lock_guard<std::mutex> lock(lane->mu);
      if (lane->dead) {
        return true;
      }
    }
    return false;
  }

  TenantState* TenantStateFor(const std::string& tenant) {
    std::lock_guard<std::mutex> lock(tenants_mu_);
    auto it = tenants_.find(tenant);
    if (it == tenants_.end()) {
      it = tenants_
               .emplace(tenant, std::make_unique<TenantState>(tenant, config_.QuotaFor(tenant)))
               .first;
    }
    return it->second.get();
  }

  // The screen-then-quota gate of the single-mutation paths. False when the
  // mutation was quarantined or refused by the tenant's quota.
  bool AdmitOne(TenantState* state, const EdgeMutation& mutation) {
    if (quarantine_ != nullptr) {
      const AdmissionVerdict verdict = ScreenMutation(mutation, config_.admission);
      if (!verdict.admitted()) {
        QuarantineReject(verdict.reason, MutationBatch{mutation}, state);
        return false;
      }
    }
    if (!state->TryAdmit(1)) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.mutations_quota_rejected;
      ++stats_.batches_quota_rejected;
      return false;
    }
    return true;
  }

  bool IngestFor(TenantState* state, const EdgeMutation& mutation) {
    return AdmitOne(state, mutation) && RouteAdmitted(mutation);
  }

  // The lane-routing tail of IngestFor: the mutation has already passed the
  // sentinel screen and the quota gate. Also the fast path's escalation
  // target, so an unsafe mutation is never screened or quota-charged twice.
  bool RouteAdmitted(const EdgeMutation& mutation) {
    Lane& lane = *lanes_[ShardOf(mutation.src)];
    std::unique_lock<std::mutex> lock(lane.mu);
    if (!lane.accepting) {
      ++lane.dropped;
      return false;
    }
    lane.gutter.Add(mutation);
    ++lane.enqueued;
    lane.cross_shard += ShardOf(mutation.dst) != lane.index ? 1 : 0;
    if (lane.gutter.size() >= config_.batch_size) {
      FlushLaneLocked(lane, lock);
    }
    return true;
  }

  // IngestFast's implementation. Screen and quota-admit exactly like
  // IngestFor, then classify and splice under a journal try-lock: safe
  // mutations journal at the next global sequence number and splice in
  // place, bypassing the lane gutters, while unsafe (or journal-contended)
  // ones escalate into the owning lane. Safe applies report to the observer
  // with pseudo-lane lanes_.size() + 1, so an observer-recorded stream
  // stays a complete, in-order record.
  bool IngestFastFor(TenantState* state, const EdgeMutation& mutation) {
    if constexpr (!FastPathEngine<Engine>) {
      return IngestFor(state, mutation);
    } else {
      if (!config_.fast_path) {
        return IngestFor(state, mutation);
      }
      if (!AdmitOne(state, mutation)) {
        return false;
      }
      {
        std::unique_lock<std::mutex> journal(journal_mu_, std::try_to_lock);
        // While the async tier is engaged the BSP dependency store is
        // stale, so ClassifyFast cannot reason about it: escalate. Mode
        // flips hold journal_mu_, so a false read stays false here.
        if (journal.owns_lock() && !async_engaged_.load(std::memory_order_acquire) &&
            engine_->ClassifyFast(mutation).safe) {
          {
            // Admission bookkeeping before the point of no return: once the
            // WAL record lands the mutation is part of the admitted stream.
            // The owning lane's accepting flag stands in for a driver-wide
            // gate: Stop/Recover flip every lane before touching the engine.
            Lane& lane = *lanes_[ShardOf(mutation.src)];
            std::lock_guard<std::mutex> lock(lane.mu);
            if (!lane.accepting) {
              ++lane.dropped;
              return false;
            }
            ++lane.enqueued;
          }
          const bool journaled = JournalLocked(MutationBatch{mutation}, lanes_.size() + 1);
          const bool applied = engine_->ApplyFastSafe(mutation);
          // journal_mu_ excluded every writer between ClassifyFast and the
          // re-validation inside ApplyFastSafe, so the verdict cannot flip.
          GB_CHECK(applied) << "fast-path re-validation failed under the journal lock";
          if constexpr (CheckpointableEngine<Engine>) {
            if (!journaled) {
              // The WAL record was lost: checkpoint now so recovery still
              // covers this splice (engine state cannot move while we hold
              // journal_mu_). Never a cadence checkpoint — the next
              // promotion takes that.
              checkpointer_->WriteCheckpoint(applied_seq_);
            }
          }
          fast_counters_.safe_applied.fetch_add(1, std::memory_order_relaxed);
          return true;
        }
      }
      fast_counters_.unsafe_escalated.fetch_add(1, std::memory_order_relaxed);
      return RouteAdmitted(mutation);
    }
  }

  size_t IngestBatchFor(TenantState* state, const MutationBatch& batch) {
    if (batch.empty()) {
      return 0;
    }
    if (quarantine_ != nullptr) {
      const AdmissionVerdict verdict = ScreenBatch(batch, config_.admission);
      if (!verdict.admitted()) {
        QuarantineReject(verdict.reason, batch, state);
        return 0;
      }
    }
    if (!state->TryAdmit(batch.size())) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.mutations_quota_rejected += batch.size();
      ++stats_.batches_quota_rejected;
      return 0;
    }
    // Route by source shard, preserving intra-lane ingest order — all
    // mutations of one (src, dst) pair share a lane, so per-pair order is
    // exactly the producer's. One lane needs no routing copy.
    std::vector<MutationBatch> routed;
    std::vector<uint64_t> cross(lanes_.size(), 0);
    if (lanes_.size() > 1) {
      routed.resize(lanes_.size());
      for (const EdgeMutation& m : batch) {
        const size_t owner = ShardOf(m.src);
        routed[owner].push_back(m);
        cross[owner] += ShardOf(m.dst) != owner ? 1 : 0;
      }
    }
    size_t accepted = 0;
    for (size_t i = 0; i < lanes_.size(); ++i) {
      const MutationBatch& part = lanes_.size() > 1 ? routed[i] : batch;
      if (part.empty()) {
        continue;
      }
      Lane& lane = *lanes_[i];
      std::unique_lock<std::mutex> lock(lane.mu);
      lane.cross_shard += cross[i];
      for (size_t j = 0; j < part.size(); ++j) {
        if (!lane.accepting) {  // re-checked: FlushLaneLocked drops the lock
          lane.dropped += part.size() - j;
          break;
        }
        lane.gutter.Add(part[j]);
        ++lane.enqueued;
        ++accepted;
        if (lane.gutter.size() >= config_.batch_size) {
          FlushLaneLocked(lane, lock);
        }
      }
    }
    return accepted;
  }

  // Parks an un-applied batch in the durable shed log, or counts it
  // dropped without a checkpointer (or when the append fails).
  void ShedOrDrop(const MutationBatch& batch) {
    const bool shed = checkpointer_ != nullptr && checkpointer_->AppendShed(batch);
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (shed) {
      stats_.mutations_shed_to_wal += batch.size();
      shed_batches_.fetch_add(1);
    } else {
      stats_.mutations_dropped += batch.size();
    }
  }

  // Takes the lane's gutter as a batch and moves it toward the worker.
  // Caller holds `lock` on lane.mu; the queue handoff happens unlocked so a
  // blocked push stalls only the flushing producer (in_flight keeps the
  // batch visible to PrepQuery and the stale-flush check meanwhile).
  //
  // Overflow on a full lane queue follows the policy: kBlock waits (the
  // backpressure this producer feels), kDropNewest drops, kShedToWal sheds
  // into the global sequence-tagged shed log, kShedOldest evicts the
  // lane's oldest queued batch into the shed log (or drops it) to admit
  // the fresh one, and kDegrade puts the batch *back* into the lane's
  // gutter to be re-coalesced and retried — unless `allow_refill` is false
  // (query barrier / shutdown), where kDegrade falls back to a lossless
  // blocking push. A closed queue (shutdown, recovery, or a dead lane)
  // sheds durably when a checkpointer is attached and drops otherwise,
  // under every policy. The Refill keeps the gutter's age epoch (see
  // GutterBuffer), so the lane's stale-flush deadline survives degrade
  // churn.
  void FlushLaneLocked(Lane& lane, std::unique_lock<std::mutex>& lock,
                       bool allow_refill = true) {
    if (lane.gutter.empty()) {
      return;
    }
    if (config_.overflow == OverflowPolicy::kDegrade && allow_refill && lane.queue.full()) {
      // Coalesce under pressure: leave the batch in the gutter (duplicates
      // die at the eventual Take) instead of churning Take/Refill on every
      // ingested mutation while the queue stays full.
      UpdateGovernorPressure();
      return;
    }
    TimedBatch item;
    uint64_t coalesced = 0;
    item.batch = lane.gutter.Take(config_.coalesce, &coalesced);
    item.since_flush.Reset();
    ++lane.in_flight;
    lock.unlock();
    bool pushed = false;
    double waited = 0.0;
    std::optional<TimedBatch> evicted;
    if (lane.queue.TryPush(std::move(item))) {
      pushed = true;
    } else if (config_.overflow == OverflowPolicy::kBlock ||
               (config_.overflow == OverflowPolicy::kDegrade && !allow_refill)) {
      Timer wait;
      pushed = lane.queue.Push(std::move(item));
      waited = wait.Seconds();
    } else if (config_.overflow == OverflowPolicy::kShedOldest) {
      pushed = lane.queue.PushEvictOldest(std::move(item), &evicted);
    }
    const bool refill = !pushed && !lane.queue.closed() && allow_refill &&
                        config_.overflow == OverflowPolicy::kDegrade;
    if (evicted.has_value()) {
      // The evicted batch leaves the pipeline un-applied.
      ShedOrDrop(evicted->batch);
    }
    if (!pushed && !refill) {
      if (config_.overflow == OverflowPolicy::kDropNewest) {
        std::lock_guard<std::mutex> slock(stats_mu_);
        stats_.mutations_dropped += item.batch.size();
      } else {
        ShedOrDrop(item.batch);
      }
    }
    {
      std::lock_guard<std::mutex> slock(stats_mu_);
      stats_.mutations_coalesced += coalesced;
      stats_.queue_wait_seconds += waited;
      stats_.shed_oldest_evictions += evicted.has_value() ? 1 : 0;
    }
    lock.lock();
    if (refill) {
      lane.gutter.Refill(std::move(item.batch));
    }
    // The evicted batch and an unpushed one both leave the pipeline here.
    lane.ReleaseInFlight((evicted.has_value() ? 1 : 0) + (pushed ? 0 : 1));
    UpdateGovernorPressure();
  }

  // What one PromoteHeads call did.
  enum class Promotion { kNone, kPromoted, kExit };

  void LaneLoop(Lane& lane) {
    for (;;) {
      Timer poll;
      if (lane.queue.WaitNonEmptyFor(std::chrono::duration<double>(NextPollSeconds(lane)))) {
        const Promotion promotion = PromoteHeads(lane);
        if (promotion == Promotion::kExit) {
          return;  // stall-aborted globally: recovery owns the lane
        }
        // A sibling may have fused this lane's head (kNone): only a real
        // promotion hits the kill site or earns lane 0's maintenance tick.
        if (promotion == Promotion::kPromoted) {
          if (LaneKilled(lane)) {
            return;  // recovery owns the lane
          }
          if (lane.index == 0) {
            // One maintenance increment per promotion keeps compaction
            // overlapped with a saturated stream (the quiescent window
            // between applies).
            MaintenanceTick();
          }
        }
      } else if (lane.queue.closed()) {
        break;  // closed and drained
      } else if (lane.index == 0) {
        // Idle poll: advance a pending global rewrite. One lane suffices —
        // the budget bounds each step, not the number of ticking threads.
        // The empty poll is the idle window the adaptive budget sizes
        // ticks against; feed the observation before spending it.
        budget_.RecordIdle(poll.Seconds());
        MaintenanceTick();
        AsyncTick();   // refresh overload state; propagate or reconcile
        MaybeScrub();  // cadence-gated artifact verification
      }
      // The stale check runs after *every* iteration — promotions included,
      // so a busy lane queue cannot starve a stale gutter — against the
      // monotonic deadline NextPollSeconds carries across polls.
      FlushStaleLane(lane);
    }
  }

  // The lane worker's next wait: the flush interval, shortened so the wait
  // expires exactly when the gutter's oldest mutation goes stale — the
  // monotonic deadline carried across polls (a promotion or short timeout
  // does not re-arm the full interval). A gutter already past its deadline
  // but blocked by an in-flight batch (FlushStaleLane waits for an empty
  // queue) gets a short back-off instead of a spin.
  double NextPollSeconds(const Lane& lane) const {
    std::lock_guard<std::mutex> lock(lane.mu);
    if (lane.gutter.empty()) {
      return config_.flush_interval_seconds;
    }
    const double remaining = config_.flush_interval_seconds - lane.gutter.AgeSeconds();
    if (remaining <= 0.0) {
      return lane.in_flight > 0 ? 1e-3 : 1e-4;
    }
    return remaining;
  }

  // Moves a stale lane gutter into the lane's queue, where the next
  // promotion — this worker's or a sibling's — takes it like any flushed
  // batch. Only when in_flight == 0: the queue is then empty, so the push
  // cannot block the worker behind itself, and the gutter is strictly newer
  // than anything already formed. A queue closed by Stop() or Recover()
  // leaves the batch in the gutter.
  void FlushStaleLane(Lane& lane) {
    uint64_t coalesced = 0;
    {
      std::lock_guard<std::mutex> lock(lane.mu);
      if (lane.in_flight != 0 || lane.gutter.empty() ||
          lane.gutter.AgeSeconds() < config_.flush_interval_seconds) {
        return;
      }
      StallWatchdog::StageScope stage(&watchdog_, PipelineStage::kGutterFlush, lane.index);
      TimedBatch stale;
      stale.batch = lane.gutter.Take(config_.coalesce, &coalesced);
      stale.since_flush.Reset();
      if (lane.queue.Push(std::move(stale))) {
        ++lane.in_flight;
      } else {
        lane.gutter.Refill(std::move(stale.batch));
      }
    }
    std::lock_guard<std::mutex> slock(stats_mu_);
    stats_.mutations_coalesced += coalesced;
  }

  // The kWorkerKill site fires between batches (after a promotion
  // completes), so the engine is always left at a batch boundary — a crash
  // never tears a refinement. The lane's queue closes so producers stop
  // blocking behind the dead consumer (their pushes fail over to the
  // shed/drop path); queued batches stay poppable for Recover().
  bool LaneKilled(Lane& lane) {
    if (!GB_FAULT_POINT(injector_, FaultSite::kWorkerKill)) {
      return false;
    }
    lane.queue.Close();
    std::lock_guard<std::mutex> lock(lane.mu);
    lane.dead = true;
    GB_LOG(kWarning) << "FaultInjector: lane " << lane.index << " worker killed";
    lane.drained_cv.notify_all();
    return true;
  }

  // Takes `member`'s queue head for a promotion. Caller holds engine_mu_:
  // while the workers run, heads leave a queue only here, so each lane's
  // batches promote in queue order. A dead lane keeps its queue intact for
  // Recover().
  std::optional<TimedBatch> PopHead(Lane& member) {
    std::lock_guard<std::mutex> lock(member.mu);
    if (member.dead) {
      return std::nullopt;
    }
    return member.queue.TryPop();
  }

  // One fused promotion, under the engine mutex and the worker's kApply
  // heartbeat: pops at most one head from every live lane, in lane order,
  // and promotes their concatenation once — one observer call (reported
  // with this worker's lane), one sequence number, one WAL record, one
  // cadence check, one refinement. Lanes own disjoint sources, so the
  // concatenation keeps the order of every (src, dst) pair. Returns kNone
  // when siblings had already drained every queue.
  //
  // An injected kStageStall pops only this lane's head and parks with it
  // outside engine_mu_ (siblings keep promoting) until a cancellation token
  // releases it; the batch is then shed durably (or counted dropped), so a
  // shed drain replays it. Returns kExit when the release was *global*
  // stall recovery — the worker must exit so Recover() can join it; a
  // lane-local release returns kNone and the lane resumes on its own.
  Promotion PromoteHeads(Lane& lane) {
    Timer wall;
    std::vector<Lane*> members;  // lanes whose head the promotion holds
    Timer oldest_flush;
    EngineStats applied;
    uint64_t rebuilds = 0;
    {
      StallWatchdog::StageScope stage(&watchdog_, PipelineStage::kApply, lane.index);
      std::unique_lock<std::mutex> engine_lock(engine_mu_);
      std::optional<TimedBatch> own = PopHead(lane);
      if (own.has_value() && GB_FAULT_POINT(injector_, FaultSite::kStageStall)) {
        engine_lock.unlock();
        return ParkStalled(lane, std::move(own->batch)) ? Promotion::kExit : Promotion::kNone;
      }
      MutationBatch fused;
      for (auto& member : lanes_) {
        std::optional<TimedBatch> head =
            member.get() == &lane ? std::move(own) : PopHead(*member);
        if (!head.has_value()) {
          continue;
        }
        if (members.empty() || head->since_flush.Seconds() > oldest_flush.Seconds()) {
          oldest_flush = head->since_flush;
        }
        members.push_back(member.get());
        if (fused.empty()) {
          fused = std::move(head->batch);
        } else {
          fused.insert(fused.end(), head->batch.begin(), head->batch.end());
        }
      }
      if (members.empty()) {
        return Promotion::kNone;
      }
      SyncAsyncMode();
      const bool async_apply = async_engaged_.load(std::memory_order_relaxed);
      ApplyJournaled(fused, lane.index);
      AsyncRound(async_apply);
      applied = engine_->stats();
      if constexpr (GraphMaintainableEngine<Engine>) {
        rebuilds = engine_->mutable_graph()->adaptive_rebuilds();
      }
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.batches_applied;
      stats_.shard_batches_staged += members.size();
      // The graph's rebuild counter is cumulative; mirror, don't sum.
      stats_.adaptive_rebuilds = rebuilds;
      AccumulateEngineStats(applied, &stats_);
      stats_.flush_latency_seconds += oldest_flush.Seconds();
    }
    {
      // Every promotion feeds the one global governor: the EWMA sees all
      // apply latencies, the pressure input sees the total depth.
      std::lock_guard<std::mutex> glock(governor_mu_);
      governor_.RecordApply(wall.Seconds());
      governor_.Update(QueuedDepth());
    }
    for (Lane* member : members) {
      std::lock_guard<std::mutex> lock(member->mu);
      member->ReleaseInFlight();
    }
    return Promotion::kPromoted;
  }

  // The injected hung apply (see PromoteHeads): parks cooperatively, with
  // the caller's kApply heartbeat reading busy, until a cancellation token
  // releases it, then sheds the in-hand batch. Parks *outside* engine_mu_ —
  // a stage that wedged while holding the engine could be detected but
  // never joined (see watchdog.h). True on a global release.
  bool ParkStalled(Lane& lane, const MutationBatch& batch) {
    GB_LOG(kWarning) << "FaultInjector: lane " << lane.index << " apply stage stalled";
    while (!stall_abort_.load() && !lane.stall_abort.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const bool global_abort = stall_abort_.load();
    lane.stall_abort.store(false);  // consume the lane-local token
    ShedOrDrop(batch);
    {
      std::lock_guard<std::mutex> lock(lane.mu);
      lane.ReleaseInFlight();
    }
    if (!global_abort) {
      // Lane-local release is complete: the in-hand batch is parked in the
      // shed log for the next barrier and this lane resumes popping.
      // Healthy again unless the verdict escalated to Recover().
      std::lock_guard<std::mutex> slock(stats_mu_);
      healthy_ = !escalating_;
    }
    return global_abort;
  }

  // Sums one apply's per-call engine counters into a cumulative total.
  static void AccumulateEngineStats(const EngineStats& applied, EngineStats* total) {
    total->seconds += applied.seconds;
    total->mutation_seconds += applied.mutation_seconds;
    total->edges_processed += applied.edges_processed;
    total->iterations += applied.iterations;
    total->tasks_forked += applied.tasks_forked;
    total->tasks_stolen += applied.tasks_stolen;
    total->inline_runs += applied.inline_runs;
    total->tasks_priority += applied.tasks_priority;
  }

  // The one journaling step of every apply, batched or fast; caller holds
  // journal_mu_. Notifies the observer, assigns the next global sequence
  // number and appends the WAL record write-ahead, so observer order is
  // exactly WAL/apply order. Returns false when the record was lost (the
  // append exhausted its retries): the caller must checkpoint past it.
  bool JournalLocked(const MutationBatch& batch, size_t observer_lane) {
    if (observer_) {
      observer_(observer_lane, batch);
    }
    ++applied_seq_;
    return checkpointer_ == nullptr || checkpointer_->AppendWal(applied_seq_, batch);
  }

  // Every engine apply but the fast path's funnels through here (lane
  // promotions, queued batches and shed replays during recovery): journal,
  // apply, then checkpoint on cadence. Caller holds engine_mu_; journal_mu_
  // is taken here so fast-path splices interleave only at batch boundaries.
  // While the async tier is engaged the apply is the barrier-free one and
  // takes no cadence checkpoint — the dependency store is stale, so a
  // snapshot would be unrecoverable; a lost WAL record instead forces an
  // immediate reconcile, whose checkpoint supersedes it.
  void ApplyJournaled(const MutationBatch& batch, size_t observer_lane) {
    bool journaled = true;
    bool async = false;
    {
      std::lock_guard<std::mutex> journal_lock(journal_mu_);
      journaled = JournalLocked(batch, observer_lane);
      if constexpr (AsyncDeltaEngine<Engine>) {
        async = async_engaged_.load(std::memory_order_relaxed);
        if (async) {
          engine_->AsyncApplyMutations(batch);
        }
      }
      if (!async) {
        engine_->ApplyMutations(batch);
        if constexpr (CheckpointableEngine<Engine>) {
          if (checkpointer_ != nullptr) {
            // The promoting lane's slot; promotions outside any lane use
            // lane 0's.
            StallWatchdog::StageScope stage(&watchdog_, PipelineStage::kCheckpoint,
                                            observer_lane < lanes_.size() ? observer_lane : 0);
            // force: a batch whose WAL record was lost must be captured by
            // a checkpoint before the next crash.
            checkpointer_->MaybeCheckpoint(applied_seq_, /*force=*/!journaled);
          }
        }
      }
    }
    if (async && !journaled) {
      GB_LOG(kWarning) << "async apply lost its WAL record; reconciling to a checkpoint";
      ReconcileAsync();
    }
  }

  // Lane-0-only (single ticking thread, so the cadence timer needs no
  // lock): run a scrub pass once the configured interval of wall time has
  // passed since the last one. Rides the idle poll — a saturated pipeline
  // defers scrubbing, which is the right priority order.
  void MaybeScrub() {
    if (checkpointer_ == nullptr || config_.scrub_interval_seconds <= 0.0 ||
        scrub_timer_.Seconds() < config_.scrub_interval_seconds) {
      return;
    }
    scrub_timer_.Reset();
    ScrubNow();
  }

  // One background-compaction increment on the global graph in lane 0's
  // quiescent window (after each of its promotions and on its idle polls).
  // Holding the engine mutex makes this the epoch barrier: no apply or
  // query can observe a half-built shadow, and a completed rewrite flips in
  // under the same lock every reader takes.
  void MaintenanceTick() {
    if constexpr (GraphMaintainableEngine<Engine>) {
      if (!config_.background_compaction) {
        return;
      }
      // Adaptive budget: sized from lane 0's observed idle windows and the
      // per-edge rewrite cost, falling back to the configured constant
      // until both signals have data (see maintenance_budget.h). Only
      // lane 0 ticks, so last_maintenance_edges_ is single-threaded.
      const size_t budget = budget_.Next();
      SlackCsr::CompactionStats compaction;
      Timer step;
      {
        StallWatchdog::StageScope stage(&watchdog_, PipelineStage::kMaintenance, /*lane=*/0);
        std::lock_guard<std::mutex> engine_lock(engine_mu_);
        std::lock_guard<std::mutex> journal_lock(journal_mu_);  // vs fast-path splices
        MutableGraph* graph = engine_->mutable_graph();
        graph->MaintenanceStep(budget);
        compaction = graph->compaction_stats();
      }
      // Feed the cost signal with this step's delta (the graph counter is
      // cumulative); lock wait counts as cost, which rightly shrinks the
      // budget when the engine is contended.
      budget_.RecordStep(compaction.background_edges_copied - last_maintenance_edges_,
                         step.Seconds());
      last_maintenance_edges_ = compaction.background_edges_copied;
      std::lock_guard<std::mutex> lock(stats_mu_);
      // The graph's counters are already cumulative; mirror, don't sum.
      stats_.maintenance_steps = compaction.maintenance_steps;
      stats_.background_compactions = compaction.background_compactions;
      stats_.background_compaction_edges = compaction.background_edges_copied;
      stats_.forced_sync_compactions = compaction.forced_sync_compactions;
      stats_.maintenance_budget_edges = budget;
    }
  }

  // ----- Async delta-accumulative mode (INTERNALS §12) ---------------------
  //
  // Mode flips hold BOTH engine_mu_ and journal_mu_: the fast path splices
  // under journal_mu_ alone, and a splice racing EnterAsyncMode's aggregate
  // rebuild (or the reconcile's recompute) would tear it. async_engaged_
  // mirrors engine_->async_mode() so either lock — or neither, for advisory
  // reads — observes the flip race-free. While engaged: IngestFast
  // escalates (ClassifyFast reasons about the stale BSP dependency store),
  // cadence checkpoints are suppressed (same staleness), and the WAL keeps
  // journaling every batch — recovery replays it through BSP
  // ApplyMutations, landing on a legitimate BSP state of the final graph.
  // The observer sees async applies exactly like BSP ones.

  // True when the configuration admits the async tier at all: a policy
  // other than kOff, under kDegrade (whose governor engages it).
  bool AsyncAllowed() const {
    return config_.async_mode != AsyncModePolicy::kOff &&
           config_.overflow == OverflowPolicy::kDegrade;
  }

  // True when the configuration and the governor agree the engine should be
  // running async.
  bool AsyncWanted() const {
    if (!AsyncAllowed()) {
      return false;
    }
    std::lock_guard<std::mutex> glock(governor_mu_);
    return governor_.degraded();
  }

  // Flips the engine to match AsyncWanted(). Caller holds engine_mu_.
  void SyncAsyncMode() {
    if constexpr (AsyncDeltaEngine<Engine>) {
      const bool want = AsyncWanted();
      const bool engaged = async_engaged_.load(std::memory_order_relaxed);
      if (want && !engaged) {
        double residual = 0.0;
        {
          std::lock_guard<std::mutex> journal_lock(journal_mu_);
          engine_->EnterAsyncMode();
          async_engaged_.store(true, std::memory_order_release);
          residual = engine_->AsyncResidual();
        }
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.async_entries;
        stats_.async_residual = residual;
      } else if (!want && engaged) {
        ReconcileAsync();
      }
    }
  }

  // One reconciling barrier: async -> BSP (a from-scratch refinement on the
  // final graph restores bitwise-deterministic state), then a forced
  // checkpoint — cadence checkpoints were suppressed across the async
  // window, so the store must re-cover the frontier now. No-op when the
  // engine is already synchronous. Caller holds engine_mu_ but not
  // stats_mu_.
  void ReconcileAsync() {
    if constexpr (AsyncDeltaEngine<Engine>) {
      if (!async_engaged_.load(std::memory_order_relaxed)) {
        return;
      }
      {
        std::lock_guard<std::mutex> journal_lock(journal_mu_);
        engine_->ExitAsyncReconcile();
        async_engaged_.store(false, std::memory_order_release);
        if (checkpointer_ != nullptr) {
          if constexpr (CheckpointableEngine<Engine>) {
            StallWatchdog::StageScope stage(&watchdog_, PipelineStage::kCheckpoint);
            checkpointer_->WriteCheckpoint(applied_seq_);
          }
        }
      }
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.async_reconciles;
      stats_.async_residual = 0.0;
    }
  }

  // One bounded propagation round, caller holding engine_mu_: while the
  // tier is engaged and unconverged, step it once, then publish the
  // residual — under engine_mu_, like every residual write, so a reconcile
  // that follows is never overwritten by this older value. It rides along
  // with every promotion (`async_apply` counts an async one), so served
  // values chase the mutations they absorb even when no lane ever goes
  // idle, and with lane 0's idle ticks. The engine leaves async-round
  // scheduler work unattributed; the priority-lane pushes are read from the
  // arena directly.
  void AsyncRound(bool async_apply) {
    if constexpr (AsyncDeltaEngine<Engine>) {
      const bool step =
          async_engaged_.load(std::memory_order_relaxed) && engine_->AsyncResidual() > 0.0;
      if (!step && !async_apply) {
        return;
      }
      uint64_t priority = 0;
      if (step) {
        const uint64_t before = TaskArena::Instance().counters().tasks_priority;
        engine_->AsyncStep(config_.async_step_budget);
        priority = TaskArena::Instance().counters().tasks_priority - before;
      }
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.async_applies += async_apply ? 1 : 0;
      stats_.async_steps += step ? 1 : 0;
      stats_.async_residual = engine_->AsyncResidual();
      stats_.tasks_priority += priority;
    }
  }

  // An idle-window async round on lane 0: refresh the governor (a quiet
  // queue is what clears degraded mode), flip the engine to match, and run
  // one AsyncRound. Running on every idle poll is what makes the mode
  // self-clearing without waiting for a query barrier, and what drives the
  // residual to zero once ingestion pauses: freshness progresses even with
  // no queries observing it.
  void AsyncTick() {
    if constexpr (AsyncDeltaEngine<Engine>) {
      if (!AsyncAllowed()) {
        return;
      }
      UpdateGovernorPressure();
      std::lock_guard<std::mutex> engine_lock(engine_mu_);
      SyncAsyncMode();
      AsyncRound(/*async_apply=*/false);
    }
  }

  // Applies batches parked in the shed log through the journaled path, in
  // shed-sequence order — one deterministic global order no matter which
  // lane shed them. shed_replay_mu_ serializes concurrent barriers so a
  // batch is never applied twice; the engine lock orders the replay against
  // every lane worker. The observer sees replayed batches with the
  // pseudo-lane index lanes_.size() ("shed replay").
  void ReplayShed() {
    if (checkpointer_ == nullptr) {
      return;
    }
    std::lock_guard<std::mutex> replay_lock(shed_replay_mu_);
    uint64_t replayed = 0;
    EngineStats summed;
    {
      std::lock_guard<std::mutex> engine_lock(engine_mu_);
      if constexpr (AsyncDeltaEngine<Engine>) {
        // Shed batches replay through BSP ApplyMutations; reconcile inside
        // this engine scope so a racing AsyncTick cannot re-enter async
        // between the barrier and the drain.
        ReconcileAsync();
      }
      replayed = checkpointer_->DrainShed([&](MutationBatch&& batch) {
        ApplyJournaled(batch, lanes_.size());
        AccumulateEngineStats(engine_->stats(), &summed);
      });
    }
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.shed_batches_replayed += replayed;
    stats_.batches_applied += replayed;
    AccumulateEngineStats(summed, &stats_);
    const size_t shed = shed_batches_.load();
    shed_batches_.store(shed >= replayed ? shed - replayed : 0);
  }

  // Watchdog verdict: some lane's stage exceeded the stall timeout. Runs
  // on the watchdog thread, outside the watchdog's lock. Marks the driver
  // unhealthy, then releases the stalled lane's worker via its lane-local
  // token — the worker sheds its in-hand batch durably and resumes, and
  // sibling lanes never stop (the park is outside the engine mutex). With
  // auto-recovery configured and a checkpointer attached, escalates to the
  // full Recover() on top: restore, replay WAL + queued + shed, restart
  // every lane.
  void OnStall(const StallCause& cause) {
    GB_LOG(kWarning) << "watchdog: lane " << cause.lane << " stage "
                     << PipelineStageName(cause.stage) << " stalled for "
                     << cause.stalled_seconds << " s";
    const bool escalate = config_.watchdog_auto_recover && checkpointer_ != nullptr;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.stalls_detected;
      healthy_ = false;
      escalating_ = escalate;
    }
    if (cause.stage == PipelineStage::kApply && cause.lane < lanes_.size()) {
      // Lane-local release. Only the apply stage parks on this token; a
      // token set for any other stage would linger and cut short the
      // lane's next stall.
      lanes_[cause.lane]->stall_abort.store(true);
    }
    if (escalate) {
      const bool recovered = Recover();
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        stats_.watchdog_recoveries += recovered ? 1 : 0;
        escalating_ = false;
        healthy_ = true;
      }
      watchdog_.ClearStall();
    }
  }

  // Total queued depth across every lane — the governor's pressure input,
  // which is what makes degrade fire on any overloaded lane and clear only
  // when pressure recedes on all of them.
  size_t QueuedDepth() const {
    size_t depth = 0;
    for (const auto& lane : lanes_) {
      depth += lane->queue.size();
    }
    return depth;
  }

  void UpdateGovernorPressure() {
    std::lock_guard<std::mutex> lock(governor_mu_);
    governor_.Update(QueuedDepth());
  }

  // Parks a rejected batch in the dead-letter WAL, or counts it dropped
  // when the dead-letter append itself fails — either way the reject is
  // accounted for exactly once.
  void QuarantineReject(RejectReason reason, const MutationBatch& batch, TenantState* state) {
    const bool parked = quarantine_->Append(reason, batch);
    if (parked) {
      state->CountQuarantined(batch.size());
    }
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (parked) {
      ++stats_.batches_quarantined;
      stats_.mutations_quarantined += batch.size();
    } else {
      stats_.mutations_dropped += batch.size();
    }
    GB_LOG(kWarning) << "admission: rejected batch of " << batch.size() << " mutations ("
                     << RejectReasonName(reason)
                     << (parked ? "); quarantined" : "); dead-letter append failed, dropped");
  }

  Engine* engine_;
  DriverConfig config_;
  // The one overload governor, fed by every lane: the EWMA sees all apply
  // latencies, the pressure input the total queued depth. Guarded by
  // governor_mu_ (a leaf lock).
  AdmissionGovernor governor_;
  Checkpointer<Engine>* checkpointer_;
  FaultInjector* injector_;

  std::vector<std::unique_ptr<Lane>> lanes_;
  // The two lock-free reads of the cached-query path sit beside lanes_.
  // Batches currently parked in the shed log: written under stats_mu_
  // (each drain subtracts only what it actually replayed — a producer
  // racing a barrier may shed behind the drain).
  std::atomic<size_t> shed_batches_{0};
  // True while the engine runs the async delta-accumulative tier. Mirrors
  // engine_->async_mode(): flips happen under engine_mu_ + journal_mu_
  // together, so a holder of either lock reads it race-free; lock-free
  // reads (acquire) are advisory (fast-path gate, stats labels).
  std::atomic<bool> async_engaged_{false};

  std::mutex engine_mu_;  // held while the engine is applied or snapshotted
  // Journal mutex, nested strictly *inside* engine_mu_ (never the reverse):
  // serializes applied_seq_, observer_ invocation, the WAL append order,
  // and every write to the engine/graph — promotions (via ApplyJournaled),
  // graph maintenance, checkpoint writes, recovery restore, and fast-path
  // splices. The fast path takes only this mutex, never engine_mu_, which
  // is what keeps safe single-update applies free of the engine lock. Lane
  // mutexes may be taken under it (leafward).
  std::mutex journal_mu_;
  uint64_t applied_seq_ = 0;
  // Lane-0-only scrub cadence (see MaybeScrub).
  Timer scrub_timer_;
  ApplyObserver observer_;

  // Fast-path counters (config.fast_path; see src/driver/fast_path.h).
  FastPathCounters fast_counters_;

  mutable std::mutex stats_mu_;
  EngineStats stats_;
  // False from a watchdog verdict until the stalled lane's local release
  // (shed the in-hand batch, resume) or a Recover() completes — or, when
  // the verdict escalates (escalating_), until OnStall has counted the
  // recovery, so a healthy() reader sees the recovery's stats too.
  bool healthy_ = true;
  bool escalating_ = false;

  mutable std::mutex governor_mu_;

  // One watchdog over a lanes x stages heartbeat table; each lane's worker
  // heartbeats its own slots, the poller renders per-(lane, stage) verdicts.
  StallWatchdog watchdog_;
  // Global cooperative cancellation: set by Recover()/Stop() so a worker
  // parked in an injected stall sheds its in-hand batch and *exits* (the
  // lane-local token makes it shed and resume instead).
  std::atomic<bool> stall_abort_{false};

  std::mutex shed_replay_mu_;  // serializes concurrent shed-log drains


  // Adaptive maintenance budget, fed from lane 0's idle polls and the
  // global graph's per-edge rewrite cost.
  MaintenanceBudget budget_;
  // Cumulative background_edges_copied at the last tick; only lane 0
  // ticks, so this needs no lock.
  uint64_t last_maintenance_edges_ = 0;

  std::mutex tenants_mu_;
  std::map<std::string, std::unique_ptr<TenantState>> tenants_;
  // The implicit session behind Ingest/IngestFast/IngestBatch, looked up
  // once at construction so those calls take no tenants_mu_.
  TenantState* default_tenant_ = nullptr;

  std::unique_ptr<Quarantine> quarantine_;

  std::mutex stop_mu_;  // serializes Stop/Recover callers; guards stopped_
  bool stopped_ = false;
};

}  // namespace graphbolt

#endif  // SRC_SHARD_SHARDED_DRIVER_H_

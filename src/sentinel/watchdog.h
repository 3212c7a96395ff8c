// Stall watchdog: a monotonic-clock heartbeat per pipeline stage plus a
// background thread that detects a stage stuck past its deadline.
//
// Each stage (gutter flush, apply, maintenance, checkpoint) marks itself
// busy on entry and idle on exit via a lock-free timestamp (StageScope is
// the RAII form). The watchdog thread polls: a stage that has been
// continuously busy for longer than the stall timeout is reported exactly
// once per episode through the callback, with a structured StallCause.
// An idle stage is never a stall — a healthy pipeline with no traffic
// stays silent.
//
// Heartbeats carry a lane index so one watchdog can cover a sharded
// pipeline: SetLanes(N) (call before the first heartbeat) sizes the slot
// table to N independent copies of every stage, each lane's workers
// heartbeat their own slots, and the single poller renders one verdict
// per stalled (lane, stage) episode. A one-lane driver is lane 0 of a
// one-lane table.
//
// The driver installs a callback that marks it unhealthy, releases the
// stalled lane, and (optionally) drives Recover() automatically. Recovery is cooperative: the driver exposes a
// cancellation token the stuck stage must observe for the worker join to
// return — the injected kStageStall fault honors it, and real engine code
// would need an equivalent check to be auto-recoverable. A stage that
// ignores cancellation still gets *detected* (healthy() goes false, waiters
// wake), it just cannot be joined.
//
// All timestamps come from std::chrono::steady_clock: wall-clock steps
// (NTP, suspend/resume) can neither hide a stall nor invent one.
#ifndef SRC_SENTINEL_WATCHDOG_H_
#define SRC_SENTINEL_WATCHDOG_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

namespace graphbolt {

enum class PipelineStage : int {
  kGutterFlush = 0,  // worker-side stale-gutter flush + direct apply
  kApply,            // engine ApplyMutations + WAL journaling
  kMaintenance,      // background-compaction MaintenanceStep
  kCheckpoint,       // checkpoint serialization + commit
  kNumStages,
};

inline const char* PipelineStageName(PipelineStage stage) {
  switch (stage) {
    case PipelineStage::kGutterFlush:
      return "gutter-flush";
    case PipelineStage::kApply:
      return "apply";
    case PipelineStage::kMaintenance:
      return "maintenance";
    case PipelineStage::kCheckpoint:
      return "checkpoint";
    default:
      return "unknown";
  }
}

// What the watchdog saw when it declared a stall.
struct StallCause {
  PipelineStage stage = PipelineStage::kNumStages;
  double stalled_seconds = 0.0;
  // Which lane's heartbeat went stale; always 0 for a one-lane driver.
  size_t lane = 0;
};

class StallWatchdog {
 public:
  struct Options {
    // How often the watchdog thread re-checks the heartbeats.
    double poll_interval_seconds = 0.05;
    // A stage continuously busy for longer than this is stalled.
    double stall_timeout_seconds = 5.0;
  };

  // Invoked from the watchdog thread, outside the watchdog's lock, at most
  // once per stage per busy episode.
  using Callback = std::function<void(const StallCause&)>;

  StallWatchdog() : slots_(new Stage[static_cast<size_t>(PipelineStage::kNumStages)]) {}
  ~StallWatchdog() { Stop(); }

  StallWatchdog(const StallWatchdog&) = delete;
  StallWatchdog& operator=(const StallWatchdog&) = delete;

  // Starts (or restarts) the watchdog thread.
  void Start(const Options& options, Callback callback) {
    Stop();
    options_ = options;
    callback_ = std::move(callback);
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = false;
    }
    thread_ = std::thread([this] { Loop(); });
  }

  // Stops and joins the watchdog thread; waits out a callback in flight.
  // Must not be called from the callback itself.
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  bool running() const { return thread_.joinable(); }

  // Sizes the heartbeat table for a sharded pipeline: `lanes` independent
  // copies of every stage. Must run before the first heartbeat or Start —
  // the table swap is unsynchronized against concurrent EnterStage. Resets
  // every slot to idle.
  void SetLanes(size_t lanes) {
    lanes_ = lanes < 1 ? 1 : lanes;
    slots_.reset(new Stage[lanes_ * static_cast<size_t>(PipelineStage::kNumStages)]);
  }

  size_t lanes() const { return lanes_; }

  // ----- Stage heartbeats (lock-free, safe from any thread) ----------------

  void EnterStage(PipelineStage stage, size_t lane = 0) {
    At(stage, lane).busy_since_ns.store(NowNs());
  }

  void LeaveStage(PipelineStage stage, size_t lane = 0) {
    Stage& s = At(stage, lane);
    s.busy_since_ns.store(0);
    s.reported.store(false);  // next busy episode may report again
  }

  // RAII heartbeat; tolerates a null watchdog so call sites need no guard.
  class StageScope {
   public:
    StageScope(StallWatchdog* watchdog, PipelineStage stage, size_t lane = 0)
        : watchdog_(watchdog), stage_(stage), lane_(lane) {
      if (watchdog_ != nullptr) {
        watchdog_->EnterStage(stage_, lane_);
      }
    }
    ~StageScope() {
      if (watchdog_ != nullptr) {
        watchdog_->LeaveStage(stage_, lane_);
      }
    }
    StageScope(const StageScope&) = delete;
    StageScope& operator=(const StageScope&) = delete;

   private:
    StallWatchdog* watchdog_;
    PipelineStage stage_;
    size_t lane_;
  };

  // ----- Observation --------------------------------------------------------

  uint64_t stalls_detected() const { return stalls_.load(); }

  std::optional<StallCause> last_stall() const {
    std::lock_guard<std::mutex> lock(mu_);
    return last_stall_;
  }

  // Clears the recorded stall after a successful recovery, so the next
  // episode reports fresh.
  void ClearStall() {
    std::lock_guard<std::mutex> lock(mu_);
    last_stall_.reset();
  }

 private:
  struct Stage {
    // steady_clock nanos of the current busy episode's start; 0 when idle.
    std::atomic<int64_t> busy_since_ns{0};
    // Whether this busy episode has already been reported.
    std::atomic<bool> reported{false};
  };

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  Stage& At(PipelineStage stage, size_t lane) {
    return slots_[lane * static_cast<size_t>(PipelineStage::kNumStages) +
                  static_cast<size_t>(stage)];
  }

  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    const auto poll = std::chrono::duration<double>(options_.poll_interval_seconds);
    const int64_t timeout_ns = static_cast<int64_t>(options_.stall_timeout_seconds * 1e9);
    while (!stop_) {
      cv_.wait_for(lock, poll, [&] { return stop_; });
      if (stop_) {
        break;
      }
      const int64_t now = NowNs();
      for (size_t lane = 0; lane < lanes_ && !stop_; ++lane) {
        for (int i = 0; i < static_cast<int>(PipelineStage::kNumStages); ++i) {
          Stage& s = At(static_cast<PipelineStage>(i), lane);
          const int64_t busy_since = s.busy_since_ns.load();
          if (busy_since == 0 || now - busy_since <= timeout_ns) {
            continue;
          }
          if (s.reported.exchange(true)) {
            continue;  // this episode already fired
          }
          const StallCause cause{static_cast<PipelineStage>(i),
                                 static_cast<double>(now - busy_since) * 1e-9, lane};
          last_stall_ = cause;
          stalls_.fetch_add(1);
          lock.unlock();  // callback may take driver locks / run recovery
          callback_(cause);
          lock.lock();
          if (stop_) {
            break;
          }
        }
      }
    }
  }

  Options options_;
  Callback callback_;
  // lanes_ x kNumStages heartbeat slots, lane-major (see At).
  std::unique_ptr<Stage[]> slots_;
  size_t lanes_ = 1;
  std::atomic<uint64_t> stalls_{0};

  mutable std::mutex mu_;  // guards stop_ and last_stall_
  std::condition_variable cv_;
  bool stop_ = false;
  std::optional<StallCause> last_stall_;
  std::thread thread_;
};

}  // namespace graphbolt

#endif  // SRC_SENTINEL_WATCHDOG_H_

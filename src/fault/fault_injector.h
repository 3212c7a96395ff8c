// Deterministic, site-based fault injection for the streaming pipeline.
//
// A FaultInjector is a registry of named injection sites (worker kill,
// artificial queue-full, WAL serialization failure, checkpoint write
// failure, torn checkpoint). Production code marks each site with
// GB_FAULT_POINT(injector, site); tests arm sites either one-shot ("fire on
// the nth hit") or probabilistically from a seeded per-site RNG, so an
// entire fault matrix replays identically from a single seed.
//
// Zero cost when disabled: unless the translation unit is compiled with
// GRAPHBOLT_FAULT_INJECTION=1 (the test targets set it; the library,
// benches, and examples do not), GB_FAULT_POINT expands to the literal
// `false` and the injector is never consulted — the acceptance criterion
// for bench_driver_throughput parity.
#ifndef SRC_FAULT_FAULT_INJECTOR_H_
#define SRC_FAULT_FAULT_INJECTOR_H_

#include <array>
#include <cstdint>
#include <mutex>

namespace graphbolt {

enum class FaultSite : int {
  kWorkerKill = 0,    // a driver lane's worker dies between batches; the
                      // lane's queue closes until Recover()
  kQueueFull,         // BoundedQueue::TryPush reports an artificial full
  kWalAppend,         // WAL record serialization fails (retried with backoff)
  kCheckpointWrite,   // checkpoint serialization fails before commit
  kTornCheckpoint,    // a committed checkpoint file is torn (truncated)
  kQuarantineAppend,  // dead-letter WAL append fails (batch counted dropped)
  kStageStall,        // the worker's apply stage hangs until recovery
                      // cancels it (exercises the stall watchdog)
  kNumSites,
};

inline const char* FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kWorkerKill:
      return "worker-kill";
    case FaultSite::kQueueFull:
      return "queue-full";
    case FaultSite::kWalAppend:
      return "wal-append";
    case FaultSite::kCheckpointWrite:
      return "checkpoint-write";
    case FaultSite::kTornCheckpoint:
      return "torn-checkpoint";
    case FaultSite::kQuarantineAppend:
      return "quarantine-append";
    case FaultSite::kStageStall:
      return "stage-stall";
    default:
      return "unknown";
  }
}

class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed = 0) {
    for (size_t i = 0; i < sites_.size(); ++i) {
      // splitmix64 per-site stream: the whole matrix replays from `seed`.
      sites_[i].rng_state = Mix(seed + 0x9e3779b97f4a7c15ULL * (i + 1));
    }
  }

  // One-shot: fire for `burst` consecutive hits starting at the nth future
  // hit of `site` (nth is 1-based). Replaces any previous one-shot arm.
  void ArmOnce(FaultSite site, uint64_t nth_hit, uint64_t burst = 1) {
    std::lock_guard<std::mutex> lock(mu_);
    Site& s = At(site);
    s.armed_at = s.hits + nth_hit;
    s.burst = burst;
  }

  // Probabilistic: every future hit of `site` fires with `probability`,
  // drawn from the site's deterministic seeded stream.
  void ArmRandom(FaultSite site, double probability) {
    std::lock_guard<std::mutex> lock(mu_);
    At(site).probability = probability;
  }

  void Disarm(FaultSite site) {
    std::lock_guard<std::mutex> lock(mu_);
    Site& s = At(site);
    s.armed_at = 0;
    s.burst = 0;
    s.probability = 0.0;
  }

  // Records a hit at `site` and decides whether the fault fires. Called by
  // GB_FAULT_POINT; thread-safe.
  bool ShouldFail(FaultSite site) {
    std::lock_guard<std::mutex> lock(mu_);
    Site& s = At(site);
    ++s.hits;
    bool fire = s.armed_at != 0 && s.hits >= s.armed_at && s.hits < s.armed_at + s.burst;
    if (!fire && s.probability > 0.0) {
      s.rng_state = Mix(s.rng_state);
      fire = static_cast<double>(s.rng_state >> 11) * 0x1.0p-53 < s.probability;
    }
    if (fire) {
      ++s.fired;
    }
    return fire;
  }

  uint64_t hits(FaultSite site) const {
    std::lock_guard<std::mutex> lock(mu_);
    return At(site).hits;
  }

  uint64_t fired(FaultSite site) const {
    std::lock_guard<std::mutex> lock(mu_);
    return At(site).fired;
  }

 private:
  struct Site {
    uint64_t hits = 0;
    uint64_t fired = 0;
    uint64_t armed_at = 0;  // 0 = no one-shot armed
    uint64_t burst = 0;
    double probability = 0.0;
    uint64_t rng_state = 0;
  };

  static uint64_t Mix(uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  Site& At(FaultSite site) { return sites_[static_cast<size_t>(site)]; }
  const Site& At(FaultSite site) const { return sites_[static_cast<size_t>(site)]; }

  mutable std::mutex mu_;
  std::array<Site, static_cast<size_t>(FaultSite::kNumSites)> sites_;
};

}  // namespace graphbolt

// The injection hook. Compiled to the literal `false` (injector untouched,
// no branch, no atomic) unless the target opts in with
// -DGRAPHBOLT_FAULT_INJECTION=1.
#if defined(GRAPHBOLT_FAULT_INJECTION) && GRAPHBOLT_FAULT_INJECTION
#define GB_FAULT_POINT(injector, site) \
  ((injector) != nullptr && (injector)->ShouldFail(site))
#else
#define GB_FAULT_POINT(injector, site) false
#endif

#endif  // SRC_FAULT_FAULT_INJECTOR_H_

// Shared pieces of the three benchmark workloads: arguments, the result
// line, the measurements a timed phase collects, the end-to-end and
// per-layer metric sets computed from them, and the output checks.
#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/metrics.h"
#include "perfbench/src/timed_env.h"
#include "perfbench/src/traced_engine.h"
#include "src/algorithms/pagerank.h"
#include "src/core/graphbolt_engine.h"
#include "src/driver/stream_driver.h"
#include "src/engine/stats.h"
#include "src/graph/edge_list.h"
#include "src/graph/mutable_graph.h"
#include "src/graph/mutation.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Scratch directory inside the checkout (durable artifacts of the
  // pr-sharded-rw workload); removed again before exit.
  std::string work_dir;
  // The TaskArena's default size, taken from the hardware before the
  // benchmark pins it: parallel.speedup replays at this size.
  size_t pool_threads = 1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one invocation reports. A failed output check never reaches the
// result line: main() exits nonzero with `error` instead.
struct Outcome {
  bool correct = true;
  std::string error;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  // A non-finite value (a ratio over an empty phase) is reported as 0 so
  // the result line stays valid JSON.
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  void Fail(const std::string& why) {
    if (correct) {
      error = why;
    }
    correct = false;
  }
};

// Everything a timed phase measures. Times are Now() seconds.
struct Phase {
  double start = 0.0;         // when the first operation was issued (or due)
  double wall_seconds = 0.0;  // first operation to the end of the final barrier
  uint64_t admitted = 0;      // mutations accepted by ingest calls
  uint64_t attempted = 0;     // ingest calls + barriers
  uint64_t failed = 0;        // short/refused ingests + barriers on an unhealthy driver
  std::vector<double> update_ms;          // update→queryable, per update sample
  std::vector<Interval> update_windows;   // the interval each update_ms covers
  std::vector<double> query_ms;           // query barrier latency
  std::vector<double> ingest_us;          // ingest call duration
  std::vector<double> barrier_ms;         // barrier call duration
  std::vector<double> late_ms;            // open-loop generator lateness
  graphbolt::EngineStats driver_stats;    // driver.stats() after the final barrier
  double peak_rss_mb = 0.0;               // taken before the output check runs

  double mutations_per_second() const {
    return wall_seconds > 0.0 ? static_cast<double>(admitted) / wall_seconds : 0.0;
  }
};

// What the output check's bare-engine replay found (see ReplayPageRank).
struct ReplayResult {
  bool match = false;
  std::string why;
  double apply_seconds = 0.0;
  // Scheduler counters (tasks_forked, tasks_stolen, inline_runs) summed
  // over the replay's ApplyMutations calls.
  graphbolt::EngineStats scheduler;
};

// Inputs to the per-layer metrics that only the workload knows.
struct LayerExtras {
  const TraceLog* log = nullptr;
  const StorageCounters* storage = nullptr;  // null: no durability in this workload
  double untraced_mutations_per_second = 0.0;
  // The same batches replayed on the machine's default pool (null: not
  // measured on this workload). parallel.speedup and the parallel.* task
  // counters come from it; the program itself refines on one worker.
  const ReplayResult* pool_replay = nullptr;
  double lane_skew = 0.0;         // 0: no lanes
  uint64_t adaptive_rebuilds = 0;
};

// Peak resident set of this process, in MiB, since the last ResetPeakRss()
// (Linux resets the high-water mark through /proc/self/clear_refs). Reset
// once the inputs are generated, the peak is that of the system under test
// plus the inputs it is fed, not of the generator's scratch.
void ResetPeakRss();
double PeakRssMb();

// Sleeps until shortly before `t`, then spins, so open-loop operations are
// issued within microseconds of their due time instead of a timer slack.
void WaitUntil(double t);

// Participants in the process-wide TaskArena.
size_t ArenaThreads();

// Prints "config.<key> = <value>" ahead of the result line.
void PrintConfig(const std::string& key, const std::string& value);
void PrintConfig(const std::string& key, double value);

// Builds a system `runs` times and keeps the last one; each is destroyed
// before the next is built, so memory never holds two. Appends each
// set-up's wall time to `seconds` when given. `make(r)` builds set-up r.
template <typename Make>
auto SetUp(int runs, std::vector<double>* seconds, Make make) {
  decltype(make(0)) system;
  for (int r = 0; r < runs; ++r) {
    system.reset();
    const double start = Now();
    system = make(r);
    if (seconds != nullptr) {
      seconds->push_back(Now() - start);
    }
  }
  return system;
}

// StreamDriver options with every setting the library would otherwise read
// from the environment (GRAPHBOLT_FAST_PATH, GRAPHBOLT_BG_COMPACTION,
// GRAPHBOLT_ASYNC_MODE) pinned, and the rest written out at their defaults.
template <typename Engine>
typename graphbolt::StreamDriver<Engine>::Options PinnedStreamOptions(bool fast_path) {
  typename graphbolt::StreamDriver<Engine>::Options o;
  o.batch_size = 1024;
  o.flush_interval_seconds = 0.05;
  o.max_pending_batches = 4;
  o.overflow = graphbolt::OverflowPolicy::kBlock;
  o.coalesce = true;
  o.background_compaction = false;
  o.fast_path = fast_path;
  o.async_mode = graphbolt::AsyncModePolicy::kOff;
  return o;
}

// Emits the end-to-end metric set of an untraced run.
void AddEndToEndMetrics(const Phase& phase, double setup_seconds, Outcome* out);

// Emits the per-layer metric set of a traced run.
void AddLayerMetrics(const Phase& traced, const LayerExtras& extras, Outcome* out);

// Bitwise comparison, or within a relative tolerance when refinement ran
// on more than one worker (atomic floating-point scatter makes parallel
// refinement reproducible only to the last bits; the same rule as
// graphbolt_cli --verify-recovery).
bool ValuesMatch(const std::vector<double>& got, const std::vector<double>& want, double rel,
                 std::string* why);

// ----- The PageRank engine both PageRank workloads drive -----------------------
using PageRankEngine = graphbolt::GraphBoltEngine<graphbolt::PageRank>;

// Selective-scheduling tolerance of the PageRank workloads, as in the
// repository's paper benches.
inline constexpr double kPageRankTolerance = 1e-4;

inline PageRankEngine MakePageRankEngine(graphbolt::MutableGraph* graph) {
  return PageRankEngine(graph, graphbolt::PageRank(0.85, kPageRankTolerance));
}

// Output check of the PageRank workloads: re-applies `batches` in order
// through a bare engine on a fresh copy of `initial` and compares the
// result with `served` and the edge count with `served_edges`. Also
// returns the replay's summed ApplyMutations wall time (the denominator of
// parallel.speedup when `threads` is the default pool). `threads` 0 keeps
// the arena size.
ReplayResult ReplayPageRank(const graphbolt::EdgeList& initial,
                            const std::vector<const graphbolt::MutationBatch*>& batches,
                            const std::vector<double>& served, uint64_t served_edges,
                            size_t threads);

// Workload entry points.
Outcome RunPrBatch(const Args& args);
Outcome RunSsspTrickle(const Args& args);
Outcome RunPrShardedRw(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_

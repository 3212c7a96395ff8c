#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/parallel/task_arena.h"

namespace perfbench {

void ResetPeakRss() {
  malloc_trim(0);  // hand the input generator's freed scratch back first
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void WaitUntil(double t) {
  constexpr double kSpinSeconds = 200e-6;
  const double ahead = t - Now();
  if (ahead > kSpinSeconds) {
    std::this_thread::sleep_for(std::chrono::duration<double>(ahead - kSpinSeconds));
  }
  while (Now() < t) {
  }
}

size_t ArenaThreads() { return graphbolt::TaskArena::Instance().num_threads(); }

void PrintConfig(const std::string& key, const std::string& value) {
  std::printf("config.%s = %s\n", key.c_str(), value.c_str());
}

void PrintConfig(const std::string& key, double value) {
  std::printf("config.%s = %.17g\n", key.c_str(), value);
}

bool ValuesMatch(const std::vector<double>& got, const std::vector<double>& want, double rel,
                 std::string* why) {
  if (got.size() != want.size()) {
    *why = "served " + std::to_string(got.size()) + " values, reference has " +
           std::to_string(want.size());
    return false;
  }
  size_t mismatches = 0;
  size_t first = 0;
  for (size_t v = 0; v < got.size(); ++v) {
    const bool same = rel == 0.0
                          ? std::memcmp(&got[v], &want[v], sizeof(double)) == 0
                          : std::fabs(got[v] - want[v]) <=
                                rel * std::max(std::fabs(got[v]), std::fabs(want[v]));
    if (!same && mismatches++ == 0) {
      first = v;
    }
  }
  if (mismatches > 0) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%zu of %zu values differ from the reference (%s); first at vertex %zu: "
                  "%.17g vs %.17g",
                  mismatches, got.size(), rel == 0.0 ? "bitwise" : "relative 1e-9", first,
                  got[first], want[first]);
    *why = buf;
    return false;
  }
  return true;
}

ReplayResult ReplayPageRank(const graphbolt::EdgeList& initial,
                            const std::vector<const graphbolt::MutationBatch*>& batches,
                            const std::vector<double>& served, uint64_t served_edges,
                            size_t threads) {
  const size_t program_threads = ArenaThreads();
  const bool resize = threads != 0 && threads != program_threads;
  if (resize) {
    graphbolt::TaskArena::SetNumThreads(threads);
  }
  ReplayResult result;
  {
    graphbolt::MutableGraph graph(initial);
    PageRankEngine engine = MakePageRankEngine(&graph);
    engine.InitialCompute();
    for (const graphbolt::MutationBatch* batch : batches) {
      const double start = Now();
      engine.ApplyMutations(*batch);
      result.apply_seconds += Now() - start;
      result.scheduler.tasks_forked += engine.stats().tasks_forked;
      result.scheduler.tasks_stolen += engine.stats().tasks_stolen;
      result.scheduler.inline_runs += engine.stats().inline_runs;
    }
    std::printf("check.replay = %zu batches, TaskArena of %zu, %.3f s in ApplyMutations\n",
                batches.size(), ArenaThreads(), result.apply_seconds);
    // Bitwise only when both sides refined on one worker.
    const double rel = program_threads == 1 && ArenaThreads() == 1 ? 0.0 : 1e-9;
    result.match = ValuesMatch(served, engine.values(), rel, &result.why);
    if (result.match && graph.num_edges() != served_edges) {
      result.match = false;
      result.why = "served graph has " + std::to_string(served_edges) +
                   " edges, the replay " + std::to_string(graph.num_edges());
    }
  }
  if (resize) {
    graphbolt::TaskArena::SetNumThreads(program_threads);
  }
  return result;
}

namespace {

// One latency distribution with its sample count, its median and every
// higher percentile the sample supports (at least ten samples beyond it).
void PrintLatency(const char* name, const std::vector<double>& ms) {
  static constexpr double kCandidates[] = {0.9, 0.99, 0.999};
  std::printf("latency.%s: n=%zu p50=%.6g ms", name, ms.size(), Quantile(ms, 0.5));
  for (const double q : kCandidates) {
    if (PercentileSupported(ms.size(), q)) {
      std::printf(" p%g=%.6g ms", q * 100.0, Quantile(ms, q));
    }
  }
  const std::optional<double> top = HighestSupportedPercentile(ms.size(), kCandidates);
  if (top.has_value()) {
    std::printf(" (highest supported: p%g)\n", *top * 100.0);
  } else {
    std::printf(" (no percentile above p50 supported)\n");
  }
}

}  // namespace

void AddEndToEndMetrics(const Phase& phase, double setup_seconds, Outcome* out) {
  PrintLatency("update", phase.update_ms);
  PrintLatency("query", phase.query_ms);
  std::printf("failed_ratio = %.6g (%llu of %llu operations)\n",
              phase.attempted > 0 ? static_cast<double>(phase.failed) / phase.attempted : 0.0,
              static_cast<unsigned long long>(phase.failed),
              static_cast<unsigned long long>(phase.attempted));
  out->Add("setup_s", setup_seconds, "s");
  out->Add("mutations_per_s", phase.mutations_per_second(), "1/s");
  out->Add("update_p50_ms", Quantile(phase.update_ms, 0.50), "ms");
  out->Add("update_p90_ms", Quantile(phase.update_ms, 0.90), "ms");
  out->Add("query_p50_ms", Quantile(phase.query_ms, 0.50), "ms");
  out->Add("query_p90_ms", Quantile(phase.query_ms, 0.90), "ms");
  out->Add("peak_rss_mb", phase.peak_rss_mb, "MiB");
}

namespace {

std::vector<double> Durations(const std::vector<Span>& spans, SpanKind kind, double scale) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.kind == kind) {
      out.push_back(s.time.length() * scale);
    }
  }
  return out;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void AddLayerMetrics(const Phase& traced, const LayerExtras& extras, Outcome* out) {
  // The timed phase's spans, plus the set-up's InitialCompute.
  std::vector<Span> spans;
  for (const Span& s : extras.log->spans()) {
    if (s.time.start >= traced.start || s.kind == SpanKind::kInitialCompute) {
      spans.push_back(s);
    }
  }
  const graphbolt::EngineStats& d = traced.driver_stats;

  // ----- core ------------------------------------------------------------------
  const std::vector<double> apply_ms = Durations(spans, SpanKind::kApply, 1e3);
  double refine_ms = 0.0;
  double splice_ms = 0.0;
  double edges = 0.0;
  double iterations = 0.0;
  double applied_mutations = 0.0;
  double forked = 0.0;
  double stolen = 0.0;
  double inline_runs = 0.0;
  std::vector<Interval> busy;
  for (const Span& s : spans) {
    if (s.kind == SpanKind::kApply) {
      refine_ms += s.refine_seconds * 1e3;
      splice_ms += s.splice_seconds * 1e3;
      edges += static_cast<double>(s.edges_processed);
      iterations += s.iterations;
      applied_mutations += static_cast<double>(s.applied_mutations);
      forked += static_cast<double>(s.tasks_forked);
      stolen += static_cast<double>(s.tasks_stolen);
      inline_runs += static_cast<double>(s.inline_runs);
    }
    if (s.kind == SpanKind::kApply || s.kind == SpanKind::kClassify ||
        s.kind == SpanKind::kApplyFast || s.kind == SpanKind::kAsync) {
      busy.push_back(s.time);
    }
  }
  const double apply_ms_sum = Sum(apply_ms);
  const std::vector<double> classify_us = Durations(spans, SpanKind::kClassify, 1e6);
  const std::vector<double> apply_fast_us = Durations(spans, SpanKind::kApplyFast, 1e6);
  out->Add("core.apply_calls", static_cast<double>(apply_ms.size()), "count");
  out->Add("core.apply_ms_p50", Quantile(apply_ms, 0.50), "ms");
  out->Add("core.apply_ms_p90", Quantile(apply_ms, 0.90), "ms");
  out->Add("core.apply_ms_sum", apply_ms_sum, "ms");
  out->Add("core.refine_ms_sum", refine_ms, "ms");
  out->Add("core.edges_processed", edges, "count");
  out->Add("core.edges_per_mutation", Ratio(edges, applied_mutations), "ratio");
  out->Add("core.iterations_mean", Ratio(iterations, static_cast<double>(apply_ms.size())),
           "count");
  out->Add("core.initial_compute_s", Sum(Durations(spans, SpanKind::kInitialCompute, 1.0)), "s");
  out->Add("core.busy_share", Ratio(apply_ms_sum, traced.wall_seconds * 1e3), "ratio");
  out->Add("core.classify_calls", static_cast<double>(classify_us.size()), "count");
  out->Add("core.classify_us_p50", Quantile(classify_us, 0.50), "us");
  out->Add("core.classify_us_p90", Quantile(classify_us, 0.90), "us");
  out->Add("core.apply_fast_us_p50", Quantile(apply_fast_us, 0.50), "us");
  out->Add("core.apply_fast_us_p90", Quantile(apply_fast_us, 0.90), "us");
  out->Add("core.save_state_ms_sum", Sum(Durations(spans, SpanKind::kSaveState, 1e3)), "ms");

  // ----- graph -----------------------------------------------------------------
  out->Add("graph.splice_ms_sum", splice_ms, "ms");
  out->Add("graph.splice_share", Ratio(splice_ms, apply_ms_sum), "ratio");
  out->Add("graph.adaptive_rebuilds", static_cast<double>(extras.adaptive_rebuilds), "count");

  // ----- parallel --------------------------------------------------------------
  double speedup = 0.0;
  if (extras.pool_replay != nullptr) {
    forked = static_cast<double>(extras.pool_replay->scheduler.tasks_forked);
    stolen = static_cast<double>(extras.pool_replay->scheduler.tasks_stolen);
    inline_runs = static_cast<double>(extras.pool_replay->scheduler.inline_runs);
    speedup = Ratio(apply_ms_sum / 1e3, extras.pool_replay->apply_seconds);
  }
  out->Add("parallel.tasks_forked", forked, "count");
  out->Add("parallel.tasks_stolen", stolen, "count");
  out->Add("parallel.inline_runs", inline_runs, "count");
  out->Add("parallel.steal_ratio", Ratio(stolen, forked), "ratio");
  out->Add("parallel.speedup", speedup, "ratio");

  // ----- driver ----------------------------------------------------------------
  const BusyIndex busy_index(std::move(busy));
  std::vector<double> wait_ms;
  wait_ms.reserve(traced.update_windows.size());
  for (const Interval& w : traced.update_windows) {
    wait_ms.push_back((w.length() - busy_index.CoveredWithin(w.start, w.end)) * 1e3);
  }
  const double safe = static_cast<double>(d.fastpath_safe_applied);
  const double escalated = static_cast<double>(d.fastpath_unsafe_escalated);
  out->Add("driver.ingest_us_p50", Quantile(traced.ingest_us, 0.50), "us");
  out->Add("driver.ingest_us_p90", Quantile(traced.ingest_us, 0.90), "us");
  out->Add("driver.barrier_ms_p50", Quantile(traced.barrier_ms, 0.50), "ms");
  out->Add("driver.barrier_ms_p90", Quantile(traced.barrier_ms, 0.90), "ms");
  out->Add("driver.wait_ms_p50", Quantile(wait_ms, 0.50), "ms");
  out->Add("driver.wait_ms_p90", Quantile(wait_ms, 0.90), "ms");
  out->Add("driver.queue_wait_s", d.queue_wait_seconds, "s");
  out->Add("driver.flush_latency_ms_mean",
           Ratio(d.flush_latency_seconds * 1e3, static_cast<double>(d.batches_applied)), "ms");
  out->Add("driver.batches_applied", static_cast<double>(d.batches_applied), "count");
  out->Add("driver.mutations_coalesced", static_cast<double>(d.mutations_coalesced), "count");
  out->Add("driver.fastpath_safe_ratio", Ratio(safe, safe + escalated), "ratio");

  // ----- shard -----------------------------------------------------------------
  out->Add("shard.batches_staged", static_cast<double>(d.shard_batches_staged), "count");
  out->Add("shard.cross_shard_mutations", static_cast<double>(d.cross_shard_mutations), "count");
  out->Add("shard.wal_appends", static_cast<double>(d.shard_wal_appends), "count");
  out->Add("shard.lane_skew", extras.lane_skew, "ratio");

  // ----- fault -----------------------------------------------------------------
  const StorageCounters io = extras.storage != nullptr ? *extras.storage : StorageCounters{};
  out->Add("fault.write_calls", static_cast<double>(io.write_calls), "count");
  out->Add("fault.write_mb", static_cast<double>(io.write_bytes) / (1024.0 * 1024.0), "MiB");
  out->Add("fault.write_ms_sum", io.write_seconds * 1e3, "ms");
  out->Add("fault.flush_calls", static_cast<double>(io.flush_calls), "count");
  out->Add("fault.flush_ms_sum", io.flush_seconds * 1e3, "ms");
  out->Add("fault.rename_calls", static_cast<double>(io.rename_calls), "count");
  out->Add("fault.rename_ms_sum", io.rename_seconds * 1e3, "ms");
  out->Add("fault.wal_appends", static_cast<double>(d.wal_appends), "count");
  out->Add("fault.checkpoints_written", static_cast<double>(d.checkpoints_written), "count");
  out->Add("fault.checkpoint_s_sum", d.checkpoint_seconds, "s");
  out->Add("fault.retries", static_cast<double>(d.wal_retries + d.checkpoint_retries), "count");

  // ----- generator -------------------------------------------------------------
  out->Add("gen.late_ms_p90", Quantile(traced.late_ms, 0.90), "ms");
  out->Add("gen.late_ms_max", Max(traced.late_ms), "ms");
  out->Add("trace.overhead",
           extras.untraced_mutations_per_second > 0.0
               ? 1.0 - traced.mutations_per_second() / extras.untraced_mutations_per_second
               : 0.0,
           "ratio");
}

}  // namespace perfbench

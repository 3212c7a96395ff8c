// The repository benchmark: runs one named streaming workload for a fixed
// time, checks what it served, and prints every metric by name and unit,
// then one JSON result line. See perfbench/README.md.
//
//   perfbench --workload pr-batch|sssp-trickle|pr-sharded-rw --seed N
//             --seconds S --trace 0|1 --work-dir DIR
//
// --trace 0 measures the end-to-end metrics with nothing timed inside the
// drivers' calls; --trace 1 runs the workload untraced and then traced and
// reports the per-layer metrics. Exit status 1 means an output check
// failed; no result line is printed then.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/src/bench.h"
#include "src/parallel/task_arena.h"
#include "src/util/logging.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// Every workload refines on one TaskArena worker, whatever the machine has.
// The arena otherwise sizes itself from the hardware, so numbers taken on
// different machines would not compare; and on a shared 4-vCPU VM the
// 4-worker runs of pr-batch spread 37-54% between runs of one seed (one
// worker: 12-14%), while on the 10k-vertex graphs four workers refined 4x
// slower than one. The traced run still reports parallel.speedup against
// the machine's default pool.
constexpr size_t kArenaThreads = 1;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload pr-batch|sssp-trickle|pr-sharded-rw --seed N "
               "--seconds S --trace 0|1 --work-dir DIR\n",
               why);
  return 2;
}

int CpusAvailable() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
}

// Driver options the library would otherwise read from the environment.
// Every workload pins them explicitly; print what the environment asked
// for so a run made under an override is visible as such.
void PrintEnvironmentOverrides() {
  for (const char* name : {"GRAPHBOLT_FAST_PATH", "GRAPHBOLT_BG_COMPACTION", "GRAPHBOLT_ASYNC_MODE"}) {
    const char* value = std::getenv(name);
    PrintConfig(std::string("env.") + name,
                value == nullptr ? std::string("(unset; pinned by workload)")
                                 : std::string(value) + " (ignored; pinned by workload)");
  }
}

void PrintResult(const Outcome& out) {
  for (const Metric& m : out.metrics) {
    std::printf("%-28s %20.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              out.correct ? "true" : "false", static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") {
        return Usage("--trace takes 0 or 1");
      }
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      return Usage(("not a number: " + flag + " " + value).c_str());
    }
  }
  if (!have_workload || args.work_dir.empty() || !(args.seconds > 0.0)) {
    return Usage("--workload, --work-dir and a positive --seconds are required");
  }
  Outcome (*run)(const Args&) = nullptr;
  if (args.workload == "pr-batch") {
    run = RunPrBatch;
  } else if (args.workload == "sssp-trickle") {
    run = RunSsspTrickle;
  } else if (args.workload == "pr-sharded-rw") {
    run = RunPrShardedRw;
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }

  graphbolt::SetLogLevel(graphbolt::LogLevel::kWarning);
  args.pool_threads = ArenaThreads();
  graphbolt::TaskArena::SetNumThreads(kArenaThreads);
  PrintConfig("workload", args.workload);
  PrintConfig("seed", static_cast<double>(args.seed));
  PrintConfig("seconds", args.seconds);
  PrintConfig("trace", args.trace ? "1" : "0");
  PrintConfig("nproc", static_cast<double>(CpusAvailable()));
  PrintConfig("task_arena_threads", static_cast<double>(ArenaThreads()));
  PrintConfig("task_arena_default_threads", static_cast<double>(args.pool_threads));
  PrintConfig("build_type", PERFBENCH_BUILD_TYPE);
  PrintEnvironmentOverrides();

  const Outcome out = run(args);
  if (!out.correct) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: output check FAILED: %s\n", out.error.c_str());
    return 1;
  }
  PrintResult(out);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

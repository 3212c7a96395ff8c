#!/usr/bin/env bash
# Runs the concurrency + fault + graph test tiers under AddressSanitizer,
# ThreadSanitizer, and UndefinedBehaviorSanitizer. These are the tiers that
# exercise the driver's lanes (one and many), fault-injection sites,
# checkpoint/recovery paths, the sentinel layer (admission / quarantine /
# watchdog), and the slack-CSR in-place mutation arena (pointer arithmetic
# + parallel splices: prime sanitizer material), so they are the ones most
# likely to hide races, lifetime bugs, or UB.
#
# Usage:
#   tools/run_sanitized_tests.sh            # all three sanitizers
#   tools/run_sanitized_tests.sh address    # just one
#
# Each sanitizer gets its own build tree (build-asan/, build-tsan/,
# build-ubsan/) next to the source so the regular build/ stays untouched.
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZERS=("$@")
if [[ ${#SANITIZERS[@]} -eq 0 ]]; then
  SANITIZERS=(address thread undefined)
fi

# Test targets carrying the `concurrency`, `fault`, `graph`, `parallel`,
# `refinement`, or `chaos` ctest labels (see tests/CMakeLists.txt and
# tools/CMakeLists.txt).
# The `parallel` tier is the work-stealing runtime: the Chase-Lev deque and
# the fork-join scheduler are exactly the code whose correctness *is* its
# memory ordering, so TSan here is load-bearing, not belt-and-braces. The
# `chaos` tier (crash harness, storage faults, fsck) runs under ASan/UBSan
# only: crash_harness_test forks without exec'ing, and TSan's runtime is not
# async-signal/fork safe — a TSan child deadlocking in the allocator would
# read as a hang, not a finding.
TARGETS=(driver_test shard_test shard_sentinel_test fastpath_test parallel_test
         task_arena_test async_engine_test fault_recovery_test
         store_serialization_test sentinel_test graph_test mutable_graph_test
         slack_csr_fuzz_test storage_fault_test crash_harness_test refinement_test
         graphbolt_cli example_streaming_service)

for san in "${SANITIZERS[@]}"; do
  case "$san" in
    address) dir=build-asan ;;
    thread) dir=build-tsan ;;
    undefined) dir=build-ubsan ;;
    *) dir="build-$san" ;;
  esac
  echo "=== sanitizer: $san (build dir: $dir) ==="
  case "$san" in
    # Fork-based chaos tests are excluded from TSan (see TARGETS comment).
    thread) labels="concurrency|fault|graph|parallel|refinement" ;;
    *) labels="concurrency|fault|graph|parallel|refinement|chaos" ;;
  esac
  cmake -B "$dir" -S . -DGRAPHBOLT_SANITIZE="$san" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$dir" -j "$(nproc)" --target "${TARGETS[@]}"
  # UBSan reports are printed-and-continue by default; halt_on_error turns
  # any finding into a test failure so CI cannot scroll past it.
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    ctest --test-dir "$dir" -L "$labels" --output-on-failure -j "$(nproc)"
  echo "=== $san: OK ==="
done

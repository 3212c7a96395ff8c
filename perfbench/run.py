#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload pr-batch --seed 1 --seconds 10 --trace 0

The first call configures and builds the benchmark and the library sources
it measures into .bench_build/perfbench (Release, -O2 -g); later calls
rebuild only what changed. The benchmark binary prints its configuration,
a metric table and, as the last line of standard output, one JSON result
object. A failed output check exits nonzero without a result line.

    python3 perfbench/run.py --self-test

builds and runs the tests of the benchmark's own logic instead.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(BUILD_DIR, "work")
# Compilers and the benchmark keep their temporary files inside the checkout.
TMP_DIR = os.path.join(BUILD_DIR, "tmp")
ENV = dict(os.environ, TMPDIR=TMP_DIR)
WORKLOADS = ("pr-batch", "sssp-trickle", "pr-sharded-rw")
# A run must finish within 180 s of wall time once the build exists.
RUN_TIMEOUT_SECONDS = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build(target):
    """Configures (once) and builds `target`; returns the binary path or None."""
    if shutil.which("cmake") is None:
        log("cmake not found")
        return None
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr,
                          env=ENV).returncode != 0:
            log("configure failed")
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    result = subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr, env=ENV)
    if result.returncode != 0:
        log("build of %s failed" % target)
        return None
    return os.path.join(BUILD_DIR, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own logic tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # The benchmark measures the library next to it; without it there is
    # nothing to build or run.
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources not found under %s" % os.path.join(ROOT, "src"))
        return 2

    os.makedirs(TMP_DIR, exist_ok=True)
    binary = build("perfbench_tests" if args.self_test else "perfbench")
    if binary is None:
        return 2
    if args.self_test:
        return subprocess.run([binary], env=ENV).returncode

    os.makedirs(WORK_DIR, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", WORK_DIR]
    started = time.monotonic()
    child = subprocess.Popen(command, env=ENV)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        log("benchmark exceeded %d s after %.0f s; killed" %
            (RUN_TIMEOUT_SECONDS, time.monotonic() - started))
        return 3
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    return code


if __name__ == "__main__":
    sys.exit(main())

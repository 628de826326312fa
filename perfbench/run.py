#!/usr/bin/env python3
"""End-to-end query benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the qens library from ../src together
with query_bench.cpp in this directory (CMake, into $CARGO_TARGET_DIR or
.bench_build), then runs one measurement and prints its result as the last
line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
What each workload and metric means is documented in query_bench.cpp.
Exits non-zero, printing no result, when the sources are missing, the
build fails, or query_bench fails.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, stderr=None):
    """Run `cmd` in its own process group; on timeout kill the whole group
    (compilers under the build tool included) and wait for it."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=stderr, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out: {' '.join(cmd)}")
    return proc.returncode, out


def run_logged(cmd, timeout):
    """Run a build step; show its output only when it fails."""
    code, out = run(cmd, timeout, stderr=subprocess.STDOUT)
    if code != 0:
        sys.stderr.write(out)
        fail(f"failed ({code}): {' '.join(cmd)}")


def cached_source_dir(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        return None
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return None


def build():
    """Configure (once per build directory) and build query_bench."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("qens sources (src/) not found next to perfbench/")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    cached = cached_source_dir(build_dir)
    if cached is not None and os.path.realpath(cached) != os.path.realpath(HERE):
        shutil.rmtree(build_dir)
        cached = None
    if cached is None:
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_logged(cmd, BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", build_dir, "-j", jobs], BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "query_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    code, out = run(cmd, RUN_TIMEOUT_S)
    if code != 0:
        fail(f"query_bench exited with {code}")
    lines = out.strip().splitlines()
    if not lines:
        fail("query_bench printed no result")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result: {lines[-1]}")
    for name, metric in result["metrics"].items():
        if not math.isfinite(metric["value"]):
            fail(f"metric {name} is not finite")
    print(json.dumps(result))


if __name__ == "__main__":
    main()

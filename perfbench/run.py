#!/usr/bin/env python3
"""End-to-end DBDC benchmark runner.

Run from the repository root:

    python3 perfbench/run.py --workload blobs2d --seed 1 --seconds 10 --trace 0

Builds the benchmark (perfbench/CMakeLists.txt, which builds the DBDC
libraries through the repository's own CMake build, Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, and prints its report. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Exits non-zero
without a result line when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("blobs2d", "highdim8", "served", "stream")
# A run must end within 180 s; the build before the first run is not
# counted against this.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(root):
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench_e2e",
                  "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(step, cwd=root, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(step))
            return None
    return os.path.join(build_dir, "perfbench_e2e")


def expected_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    started = time.monotonic()
    binary = build(root)
    if binary is None:
        return 1
    log(f"build ready in {time.monotonic() - started:.1f} s")

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(run.stdout)
        log(f"benchmark exited with {run.returncode} and no result line")
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result line")
        return 1
    missing = expected_metrics(root, args.trace) ^ set(result["metrics"])
    if missing:
        log("metrics differ from BENCHMARK.json: " + ", ".join(sorted(missing)))
        return 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

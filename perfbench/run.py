#!/usr/bin/env python3
"""Builds and runs the T1000 benchmark driver for one workload.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 20 --trace 0

Run from the repository root. The driver is built from source (CMake +
Ninja) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
and then runs the workload in its own process. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics; a run that reports a different set
is not correct. Build output goes to standard error.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_sweep", "serve_mix")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_root):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no t1000 sources next to perfbench/ (expected src/CMakeLists.txt)")
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # One build at a time per build directory.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "build.ninja")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir, "-G", "Ninja",
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", build_dir, "--target",
                      "t1000-perfbench", "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "t1000-perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    binary = build(build_root)
    work_dir = os.path.join(build_root, "perfbench", "work")
    os.makedirs(work_dir, exist_ok=True)

    done = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace),
         "--ledger", os.path.join(HERE, "ledger.json"),
         "--work-dir", work_dir],
        stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail("driver exited with code %d" % done.returncode)
    result = json.loads(lines[-1])

    # The run must report exactly the metrics BENCHMARK.json declares.
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    for name in sorted(set(want) | set(got)):
        if want.get(name) != got.get(name):
            lines.insert(-1, "  FAIL metric %s: declared %s, reported %s"
                         % (name, want.get(name), got.get(name)))
            result["correct"] = False
    lines[-1] = json.dumps(result)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())

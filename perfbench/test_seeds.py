#!/usr/bin/env python3
"""The benchmark's own test: two seeds per workload.

    python3 perfbench/test_seeds.py [--seconds S] [--seeds A,B]

Run from the repository root. For paper_sweep it makes one traced run per
seed and requires every exact count (the ledger entry the driver prints)
to be identical across the seeds, since the seed only reorders the grid.
For serve_mix, whose seed sets the request schedule and the cold machine
parameters, it makes one untraced run per seed and requires each
end-to-end metric of the second to lie within BENCHMARK.json's bound of
the first. Every run must be correct with no failed operation. Exits 1
on any violation.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit("%s seed %d: exit %d\n%s" % (
            workload, seed, done.returncode, done.stderr[-2000:]))
    result = json.loads(done.stdout.splitlines()[-1])
    ledger = [line.split(": ", 1)[1] for line in done.stderr.splitlines()
              if line.startswith("ledger entry for ")]
    return result, json.loads(ledger[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=6)
    parser.add_argument("--seeds", default="1,2")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}

    problems = []
    for workload in ("paper_sweep", "serve_mix"):
        trace = 0 if workload == "serve_mix" else 1
        runs = [run(workload, seed, args.seconds, trace) for seed in seeds]
        for seed, (result, _) in zip(seeds, runs):
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s seed %d: correct=%s failed=%d" % (
                    workload, seed, result["correct"], result["failed"]))
        if trace:
            if runs[0][1] != runs[1][1]:
                problems.append("%s: counts depend on the seed" % workload)
            print("%s: %d counts identical across seeds %s" % (
                workload, len(runs[0][1]["counts"]), seeds))
            continue
        first, second = runs[0][0]["metrics"], runs[1][0]["metrics"]
        for name, bound in bounds.items():
            a, b = first[name]["value"], second[name]["value"]
            drift = abs(b - a) / a
            print("%s: %-22s %12.5g %12.5g  drift %.3f (bound %.2f)" % (
                workload, name, a, b, drift, bound))
            if drift > bound:
                problems.append("%s: %s drifts %.3f > %.2f" % (
                    workload, name, drift, bound))
    for p in problems:
        print("FAIL " + p)
    print("OK" if not problems else "%d problem(s)" % len(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes.

Run from the root of the repository:

    python3 perfbench/smoke.py

For the default seed and the held-out seed, runs every workload twice
untraced and once traced, and requires: exit code 0, a result line with
correct=true and failed=0, exactly the metric names BENCHMARK.json lists
for the mode, and exact counts that repeat between the runs (pivot_perfbench
flags a mismatch as incorrect). Takes about a minute after the build.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (1, 7919)  # default seed, held-out seed


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit("%s failed (%d):\n%s" % (" ".join(cmd),
                                                 proc.returncode,
                                                 proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    want = {0: {m["name"] for m in bench["end_to_end"]},
            1: {m["name"] for m in bench["per_layer"]}}
    failures = 0
    for seed in SEEDS:
        # search_anneal is not in BENCHMARK.json (see README.md) but is
        # still checked here.
        for workload in ("wire_commit", "search_anneal", "cold_reactivate"):
            for trace in (0, 0, 1):
                result, stderr = run(workload, seed, trace)
                names = set(result["metrics"])
                expected = set(want[trace])
                if workload == "search_anneal" and trace == 0:
                    expected.discard("stored_bytes_per_op")  # no data dir
                problems = []
                if not result["correct"] or result["failed"] != 0:
                    problems.append("incorrect: " + stderr.strip()[-500:])
                if result["attempted"] < 1:
                    problems.append("nothing attempted")
                if names != expected:
                    problems.append("metrics differ: missing %s, extra %s" %
                                    (sorted(expected - names),
                                     sorted(names - expected)))
                status = "ok" if not problems else "FAIL"
                print("%-16s seed=%-5d trace=%d %s" % (workload, seed, trace,
                                                       status))
                for p in problems:
                    print("    " + p)
                failures += bool(problems)
    print("smoke: %d failure(s)" % failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

Runs every workload briefly, untraced and traced, through
perfbench/run.py and checks that each run exits 0, that its last line
is the result object with exactly the contract's keys, that every
metric BENCHMARK.json names for that mode is printed with its unit,
and that the run is correct: no failed operation and, in traced runs,
a replay that matched the runtime bit for bit on every invocation.

    python3 perfbench/smoke_test.py [--seconds 1]

Exits 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check_run(spec, workload, trace, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "1",
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    problems = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True:
        problems.append("run not correct: " +
                        "; ".join(l for l in lines if "error" in l))
    if result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"attempted {result['attempted']} "
                        f"failed {result['failed']}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            problems.append(f"{m['name']}: {got}")
        elif not any(l.split()[1:2] == [m["name"]] and
                     f" {m['unit']} " in l for l in lines[:-1]):
            problems.append(f"{m['name']} has no detail line")
    if len(result["metrics"]) != len(wanted):
        problems.append(f"{len(result['metrics'])} metrics printed, "
                        f"{len(wanted)} expected")
    return problems


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_run(spec, workload, trace, args.seconds)
            status = "PASS" if not problems else "FAIL"
            print(f"{status} {workload} trace={trace}")
            for p in problems:
                print(f"    {p}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Repository benchmark entry point.

Usage (from the repository root):

    python3 perfbench/run.py --workload embed_mix --seed 1 --seconds 10 --trace 0

Builds perfbench/ (the Rumba libraries from src/ plus the driver
binary) into .bench_build/perfbench, runs one workload in its own run
directory under .bench_build/perfbench/runs, checks the result against
the metric list in BENCHMARK.json, writes the full run record there
(metrics with sample counts, commit, build type, nproc, load average,
steal share) and prints it. The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. Any build or run failure exits non-zero without
printing a result.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TYPE = "RelWithDebInfo"
BINARY = os.path.join(BUILD_DIR, "rumba_perfbench")
WORKLOADS = ("embed_mix", "embed_2t", "serve_open")
RUN_TIMEOUT_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure and build the driver; serialized by a lock file."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in (["cmake", "-S", HERE, "-B", BUILD_DIR,
                     f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                    ["cmake", "--build", BUILD_DIR, "-j", jobs,
                     "--target", "rumba_perfbench"]):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                die("build failed: " + " ".join(cmd))


def source_id():
    """git HEAD when available, else a hash of the source tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def cpu_times():
    with open("/proc/stat") as f:
        fields = f.readline().split()[1:]
    return [int(x) for x in fields]


def steal_share(before, after):
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])  # user..steal; guest is inside user.
    return delta[7] / total if total > 0 and len(delta) > 7 else 0.0


def load_average():
    with open("/proc/loadavg") as f:
        return float(f.read().split()[0])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    build()

    run_dir = os.path.join(
        BUILD_DIR, "runs",
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    # Only generated inputs and fixed settings reach the program: drop
    # every RUMBA_* knob of the caller and keep dumps in the run dir.
    env = {k: v for k, v in os.environ.items() if not k.startswith("RUMBA_")}
    env["RUMBA_INCIDENT_DIR"] = run_dir
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dump-dir", run_dir]
    stamp = {"commit": source_id(), "build_type": BUILD_TYPE,
             "nproc": os.cpu_count(), "loadavg_before": load_average(),
             "workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace}
    cpu_before = cpu_times()
    start = time.monotonic()
    with open(os.path.join(run_dir, "stderr.log"), "w") as err:
        try:
            proc = subprocess.run(cmd, cwd=run_dir, env=env, stdout=subprocess.PIPE,
                                  stderr=err, text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            die(f"run exceeded {RUN_TIMEOUT_S} s")
    stamp["wall_s"] = round(time.monotonic() - start, 3)
    stamp["steal_share"] = steal_share(cpu_before, cpu_times())
    stamp["loadavg_after"] = load_average()
    if proc.returncode != 0:
        die(f"driver exited with {proc.returncode}; see {run_dir}/stderr.log")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        die("driver printed no result")
    raw = json.loads(lines[-1])

    metrics = {}
    correct = bool(raw["correct"])
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                die(f"end-to-end metric {m['name']} missing")
            # A layer this workload does not use reads 0 with 0 samples.
            got = {"value": 0.0, "unit": m["unit"], "samples": 0}
        if got["unit"] != m["unit"]:
            die(f"{m['name']}: unit {got['unit']} != {m['unit']}")
        metrics[m["name"]] = got

    record = {"stamp": stamp, "correct": correct,
              "attempted": raw["attempted"], "failed": raw["failed"],
              "errors": raw["errors"], "metrics": raw["metrics"]}
    with open(os.path.join(run_dir, "record.json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print("# " + json.dumps(stamp, sort_keys=True))
    for error in raw["errors"]:
        print(f"# error: {error}")
    for name, m in metrics.items():
        note = "" if m["samples"] else "  (not exercised)"
        print(f"# {name:34s} {m['value']:.6g} {m['unit']}  "
              f"n={m['samples']}{note}")
    for name in sorted(set(raw["metrics"]) - set(metrics)):
        m = raw["metrics"][name]
        print(f"# {name:34s} {m['value']:.6g} {m['unit']}  "
              f"n={m['samples']}  (record only)")
    print(json.dumps({
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))


if __name__ == "__main__":
    main()

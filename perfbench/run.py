#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload serve|cluster-faults|paper-sweep \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
perfbench/ (the simulator library from src/ plus the stepbench program)
in .bench_build/ with an optimised build; later calls rebuild only what
changed. The program's report goes to standard output, and the last line
is one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics. A per-layer metric of a layer that
does no work on the workload reads 0. The exit code is 0 only when every
check passed; a failed build or a broken run exits non-zero without a
result line.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
EXE = BUILD / "stepbench"
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then bring the build up to date (build output on stderr)."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        steps.append(cmd)
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            die(f"build step failed: {' '.join(cmd)}")


def main():
    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as e:
        die(f"cannot read {spec_path.name}: {e}")
    workloads = [w["name"] for w in spec["workloads"]]

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    build()
    cmd = [str(EXE), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"stepbench did not finish within {RUN_TIMEOUT_S} s")
    lines = res.stdout.rstrip("\n").split("\n")
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(res.stdout)
        die(f"stepbench exited {res.returncode} without a result")
    for line in lines[:-1]:
        print(line)

    measured = raw["metrics"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name in measured:
            if measured[name]["unit"] != m["unit"]:
                die(f"{name}: unit {measured[name]['unit']} != {m['unit']}")
            metrics[name] = {"value": measured[name]["value"],
                             "unit": m["unit"]}
        elif args.trace:
            print(f"  {name}: no work on this workload, reads 0")
            metrics[name] = {"value": 0, "unit": m["unit"]}
        elif raw["correct"]:
            die(f"end-to-end metric {name} was not measured")
    correct = bool(raw["correct"]) and res.returncode == 0
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

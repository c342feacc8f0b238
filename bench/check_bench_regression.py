#!/usr/bin/env python3
"""Enforce bench regression thresholds against a checked-in baseline.

Usage:
    check_bench_regression.py BASELINE.json CURRENT.json [--threshold 0.8]

Both files are schema-v2 bench artifacts (see bench_common.hh): numeric
metrics are objects {"value": N, "unit": "..."}. Every *rate* metric in
the baseline — any metric whose unit ends in "/sec" — must be present in
the current artifact and reach at least `threshold` x the baseline
value. A baseline entry may also opt into gating explicitly with
{"gate": "floor"}: that enforces the same higher-is-better floor on a
non-rate metric (goodput under faults, availability). A baseline entry
marked {"gate": "ceiling"} is lower-is-better and gated with no slack:
the current value must not exceed the baseline value (for deterministic
counts such as context switches per decoder iteration, where any rise
is a real regression, not noise). Other metrics (counts, costs,
strings) are reported but not enforced, so the script never parses by
position and never misfires on cost metrics where smaller is better.

The committed bench/baseline.json deliberately holds values well below
a warm developer box (roughly 50-60% of locally measured numbers): CI
runners are slower and noisy, and the point of the gate is to catch
order-of-magnitude regressions (an accidental allocation or polling
loop on the hot path), not 10% jitter. Update it by running
`bench_hotpath --json` on the reference machine and scaling down, and
note the change in the PR.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema_version") != 2:
        sys.exit(f"{path}: expected schema_version 2, "
                 f"got {doc.get('schema_version')!r}")
    return doc


def gated_metrics(doc):
    """Gated metrics -> (value, unit, gate): rate units ("*/sec") and
    explicit "floor" markers are floors, "ceiling" markers ceilings."""
    out = {}
    for key, entry in doc.items():
        if not (isinstance(entry, dict) and "value" in entry):
            continue
        gate = entry.get("gate")
        if gate == "ceiling":
            out[key] = (float(entry["value"]), entry["unit"], "ceiling")
        elif str(entry.get("unit", "")).endswith("/sec") or gate == "floor":
            out[key] = (float(entry["value"]), entry["unit"], "floor")
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=0.8,
                    help="minimum fraction of the baseline value "
                         "(default 0.8)")
    args = ap.parse_args()

    baseline = gated_metrics(load(args.baseline))
    current_doc = load(args.current)
    if not baseline:
        sys.exit(f"{args.baseline}: no gated metrics (unit '*/sec' or "
                 f"\"gate\": \"floor\"/\"ceiling\") found")

    failures = []
    width = max(len(k) for k in baseline)
    for key, (base_v, unit, gate) in sorted(baseline.items()):
        # The gate marker lives in the baseline; the current artifact
        # just reports values, so look the key up in the raw document.
        entry = current_doc.get(key)
        if not (isinstance(entry, dict) and "value" in entry):
            failures.append(key)
            print(f"FAIL {key:<{width}}  missing from current artifact")
            continue
        cur_v = float(entry["value"])
        if gate == "ceiling":
            bound = base_v
            ok = cur_v <= bound
        else:
            bound = args.threshold * base_v
            ok = cur_v >= bound
        if not ok:
            failures.append(key)
        print(f"{'ok  ' if ok else 'FAIL'} {key:<{width}}  "
              f"{cur_v:14.6g} vs {gate:<7} {bound:14.6g} {unit} "
              f"(baseline {base_v:.6g})")

    if failures:
        print(f"\n{len(failures)} metric(s) past their gate (floors at "
              f"{args.threshold:.0%} of baseline, ceilings at the "
              f"baseline)", file=sys.stderr)
        return 1
    print(f"\nall {len(baseline)} gated metrics within their gates "
          f"(floors at {args.threshold:.0%} of baseline, ceilings at the "
          f"baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

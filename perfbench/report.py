#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports, per workload and
metric, the median and quartiles over runs (never the best run).

Usage, from the repository root:

    python3 perfbench/report.py [--seeds 1,2,3] [--workloads a,b] [--trace 0|1]
                                [--seconds N] [--json out.json]

Every workload named in BENCHMARK.json runs unless --workloads narrows
the set. A run that exits non-zero, prints no result line, reports
correct=false or lacks a listed metric is an error: the script prints
it and exits 1. For end-to-end metrics the spread column is
(Q3 - Q1) / median, the figure each metric's bound is compared with.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}, no result")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--json", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    listed = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else listed
    for w in workloads:
        if w not in listed:
            sys.exit(f"workload {w} is not listed in BENCHMARK.json")
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    seconds = args.seconds or spec["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]

    results = {}
    errors = []
    for w in workloads:
        for seed in seeds:
            try:
                out = run_once(spec["command"], w, seed, seconds, args.trace)
            except RuntimeError as e:
                errors.append(str(e))
                continue
            if not out["correct"] or out["failed"] != 0:
                errors.append(f"{w} seed {seed}: {out['failed']} of {out['attempted']} flows failed")
            missing = [m["name"] for m in metrics if m["name"] not in out["metrics"]]
            if missing:
                errors.append(f"{w} seed {seed}: missing metrics {missing}")
            results.setdefault(w, []).append((seed, out))
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in out["metrics"].items()), file=sys.stderr)

    worst = 0.0
    for w in workloads:
        runs = results.get(w, [])
        if len(runs) != len(seeds):
            errors.append(f"{w}: {len(runs)} of {len(seeds)} runs produced a result")
            continue
        print(f"\n{w} ({len(runs)} runs)")
        print(f"  {'metric':34s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} {'bound':>6s}")
        for m in metrics:
            vals = [out["metrics"][m["name"]]["value"] for _, out in runs
                    if m["name"] in out["metrics"]]
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s":
                worst = max(worst, spread / bound)
                flag = "  OVER" if spread > bound else ("  >1/3" if spread > bound / 3 else "")
            print(f"  {m['name']:34s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({w: [{"seed": s, **o} for s, o in r] for w, r in results.items()}, f, indent=1)
    if errors:
        print("\nerrors:\n  " + "\n  ".join(errors), file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()

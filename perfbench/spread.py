#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --runs 10 [--workloads a,b] [--seconds N]
                                [--record perfbench/RECORD.json]

Runs perfbench/run.py --trace 0 once per seed (1..runs) on each
workload and prints, for every end-to-end metric, the median of the
runs and the distance between their first and third quartiles
(statistics.quantiles(values, n=4)) as a share of that median, next to
the metric's bound in BENCHMARK.json. A spread above a third of its
bound is marked, setup_s's included.

With --record it also makes one traced run per workload and writes
the medians, quartiles and spreads, the traced layer table (self time
and share of wall time per layer), the per-layer metrics and the host
record to the given JSON file.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(wl, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True)
    result = json.loads(out.stdout.splitlines()[-1])
    path = os.path.join(ROOT, ".bench_work", "results",
                        "%s-seed%d-trace%d.json" % (wl, seed, trace))
    with open(path) as f:
        record = json.load(f)
    ok = out.returncode == 0 and result["correct"]
    return ok, result, record


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--record", help="write the first record here")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    first = {"workloads": {}}
    if args.record and os.path.exists(args.record):
        with open(args.record) as f:
            first = json.load(f)  # re-record only the workloads run
    first.update({"date": datetime.date.today().isoformat(),
                  "runs_per_workload": args.runs, "seconds": args.seconds})
    for wl in args.workloads.split(","):
        values = {name: [] for name in bounds}
        noisy = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            ok, result, record = run(wl, seed, args.seconds, 0)
            if not ok:
                print("%s seed %d failed" % (wl, seed))
                return 1
            noisy += record["run"]["canary"]["noisy"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print("%s (%d runs, %d flagged noisy)" % (wl, args.runs, noisy))
        entry = first["workloads"][wl] = {"end_to_end": {}}
        entry["noisy_runs"] = noisy
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            worst = max(worst, spread / bounds[name])
            mark = "  > bound/3" if spread > bounds[name] / 3 else ""
            print("  %-18s median %-12.6g spread %6.2f%%  bound %4.0f%%%s"
                  % (name, med, 100 * spread, 100 * bounds[name], mark))
            entry["end_to_end"][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": bounds[name],
                "unit": record["run"]["metrics"][name]["unit"]}
        if args.record:
            ok, result, record = run(wl, args.first_seed, args.seconds, 1)
            if not ok:
                print("%s traced run failed" % wl)
                return 1
            layers = record["run"]["layers_ms"]
            wall = sum(layers.values())
            entry["layers"] = {k: {"self_ms": v, "share": v / wall}
                               for k, v in layers.items()}
            entry["per_layer"] = result["metrics"]
            first["host"] = {k: record[k] for k in
                             ("commit", "nproc", "cpu_model",
                              "library_flags")}
    print("worst spread / bound: %.2f" % worst)
    if args.record:
        with open(args.record, "w") as f:
            json.dump(first, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-check of the benchmark itself, about a minute.

    python3 perfbench/selfcheck.py

For every workload, those in BENCHMARK.json and those run by name
(BY_NAME), it runs perfbench/run.py once untraced and once traced at
one second, and asserts that
  1. every metric the runs print is named in BENCHMARK.json, and the
     result line carries exactly the mode's metrics;
  2. the traced and the untraced run produce identical simulated
     results (same results digest, every pass identical);
  3. a deliberately corrupted reference is caught: one flipped digest
     makes the run fail with failed >= 1 and a nonzero exit.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
METRIC_LINE = re.compile(r"^  ([A-Za-z0-9][A-Za-z0-9_.-]*) +-?[0-9.e+-]+ ")
# Driver workloads left out of BENCHMARK.json because their runs spread
# past the bounds on a shared host (see README.md, Workloads).
BY_NAME = ["ooo_flatbus", "warm_store"]


def run(workload, trace, *extra):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
        + list(extra), cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.splitlines()
    return out.returncode, lines, json.loads(lines[-1]) if lines else None


def detail(workload, trace):
    path = os.path.join(ROOT, ".bench_work", "results",
                        "%s-seed7-trace%d.json" % (workload, trace))
    with open(path) as f:
        return json.load(f)["run"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    modes = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    known = modes[0] | modes[1]
    problems = []
    for wl in [w["name"] for w in spec["workloads"]] + BY_NAME:
        digests = {}
        for trace in (0, 1):
            rc, lines, result = run(wl, trace)
            if rc or not result or not result["correct"]:
                problems.append("%s trace %d: run failed (exit %d)"
                                % (wl, trace, rc))
                continue
            printed = {m.group(1) for m in map(METRIC_LINE.match, lines)
                       if m}
            unknown = printed - known
            if unknown:
                problems.append("%s trace %d prints metrics missing from "
                                "BENCHMARK.json: %s"
                                % (wl, trace, sorted(unknown)))
            if set(result["metrics"]) != modes[trace]:
                problems.append("%s trace %d: result line metrics differ "
                                "from BENCHMARK.json" % (wl, trace))
            d = detail(wl, trace)
            if not d["passes_identical"]:
                problems.append("%s trace %d: passes differ" % (wl, trace))
            digests[trace] = d["results_digest"]
        if len(digests) == 2 and digests[0] != digests[1]:
            problems.append("%s: traced and untraced results differ" % wl)

        # A corrupted reference must be caught.
        bad = os.path.join(ROOT, ".bench_work", "selfcheck-ref")
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(os.path.join(HERE, "reference"), bad)
        kind = "suite" if wl in ("paper_suite", "warm_store") else wl
        path = os.path.join(bad, "%s-%g.txt" % (kind, detail(wl, 0)["scale"]))
        with open(path) as f:
            text = f.read().splitlines()
        key, digest = text[1].rsplit(" ", 1)
        text[1] = "%s %016x" % (key, int(digest, 16) ^ 1)
        with open(path, "w") as f:
            f.write("\n".join(text) + "\n")
        rc, _, result = run(wl, 0, "--ref-dir", bad)
        shutil.rmtree(bad, ignore_errors=True)
        if rc == 0 or not result or result["correct"] or \
                result["failed"] < 1:
            problems.append("%s: corrupted reference not caught" % wl)
        print("%s: checked" % wl, flush=True)

    for p in problems:
        print("FAIL " + p)
    print("selfcheck: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

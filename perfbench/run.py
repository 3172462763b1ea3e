#!/usr/bin/env python3
"""Build and run the oova benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload paper_suite --seed 1 \
        --seconds 10 --trace 0

Builds liboova.a and the perfbench driver from source in an optimised
build, refuses an unoptimised or sanitized build, records the host and
the build, runs one workload, writes the full record under
.bench_work/results/, and prints as its last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics,
with --trace 1 its per_layer metrics. Exits nonzero if any result
fails verification, and without a result line if the build fails.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(bdir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, cwd=ROOT)
    subprocess.run(["cmake", "--build", bdir, "-j", jobs], check=True,
                   stdout=sys.stderr, cwd=ROOT)
    return os.path.join(bdir, "perfbench")


def library_flags(bdir):
    """The compile command of liboova.a's sources, or an error."""
    path = os.path.join(bdir, "compile_commands.json")
    try:
        with open(path) as f:
            entries = json.load(f)
    except (OSError, ValueError) as e:
        return None, "cannot read %s: %s" % (path, e)
    src = os.path.join(ROOT, "src") + os.sep
    flags = set()
    for e in entries:
        if not os.path.abspath(e["file"]).startswith(src):
            continue
        cmd = e.get("command") or " ".join(e.get("arguments", []))
        words = cmd.split()
        kept = [w for w in words[1:]
                if w.startswith(("-O", "-f", "-m", "-g", "-D", "-std"))]
        flags.add(" ".join(kept))
    if not flags:
        return None, "no liboova.a sources in " + path
    for f in flags:
        opts = re.findall(r"(?:^| )-O(\w*)", f)
        if not opts or opts[-1] == "0":
            return None, "liboova.a is built without optimisation: " + f
        if "-fsanitize" in f:
            return None, "liboova.a is built with sanitizers: " + f
    return sorted(flags), None


def git(*args):
    try:
        out = subprocess.run(["git", "-C", ROOT] + list(args),
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_record():
    commit = git("rev-parse", "HEAD")
    if commit is None:
        commit = "unknown (not a git checkout)"
    elif git("status", "--porcelain", "--untracked-files=no"):
        commit += "-dirty"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"commit": commit, "nproc": os.cpu_count(), "cpu_model": cpu,
            "loadavg_before": list(os.getloadavg())}


def wanted_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", type=float,
                    help="trace scale (default: the workload's)")
    ap.add_argument("--ref-dir", default=os.path.join(HERE, "reference"))
    ap.add_argument("--record", action="store_true",
                    help="record the reference digests instead")
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("perfbench: no oova sources next to perfbench/")
        return 2
    bdir = build_dir()
    try:
        binary = build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 2
    flags, err = library_flags(bdir)
    if err:
        log("perfbench: refusing this build: " + err)
        return 3

    record = host_record()
    work = os.path.join(ROOT, ".bench_work")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--ref-dir", args.ref_dir, "--work-dir", work]
    if args.scale:
        cmd += ["--scale", repr(args.scale)]
    if args.record:
        cmd.append("--record")
    started = time.time()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: the driver ran past %d s" % RUN_TIMEOUT_S)
        return 4
    finally:
        for name in os.listdir(work) if os.path.isdir(work) else []:
            if name.startswith("store-"):
                shutil.rmtree(os.path.join(work, name), ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    try:
        detail = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: the driver printed no summary (exit %d)"
            % proc.returncode)
        return 4
    for line in lines[:-1]:
        print(line)

    record.update({"loadavg_after": list(os.getloadavg()),
                   "library_flags": flags, "wall_s": time.time() - started,
                   "driver_exit": proc.returncode, "run": detail})
    os.makedirs(os.path.join(work, "results"), exist_ok=True)
    out = os.path.join(work, "results", "%s-seed%d-trace%d.json"
                       % (args.workload, args.seed, args.trace))
    with open(out, "w") as f:
        json.dump(record, f, indent=1)
    print("  host: %s, %d CPUs, load %.2f -> %.2f, commit %s"
          % (record["cpu_model"], record["nproc"],
             record["loadavg_before"][0], record["loadavg_after"][0],
             record["commit"]))
    print("  build: " + " | ".join(flags))
    print("  record written to " + os.path.relpath(out, ROOT))

    metrics = detail["metrics"]
    names = wanted_metrics(args.trace) or sorted(metrics)
    missing = [n for n in names if n not in metrics]
    if missing:
        log("perfbench: the driver did not report " + ", ".join(missing))
        return 4
    failed = detail["failed"]
    correct = proc.returncode == 0 and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": detail["attempted"],
        "failed": failed,
        "metrics": {n: {"value": metrics[n]["value"],
                        "unit": metrics[n]["unit"]} for n in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

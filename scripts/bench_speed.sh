#!/usr/bin/env bash
# Simulator-throughput tracking: measure simulated instructions per
# second and suite wall time, and record them in BENCH_simspeed.json
# at the repo root.
#
# Two sources feed the record:
#   - the google-benchmark binary build/simspeed (single-simulation
#     throughput per model; BM_OooSim/16 on hydro2d is the headline
#     number perf PRs are judged by; the sweep-engine batch rows
#     BM_SweepEngine/*; the mem layer's reserve() and TLB rows, in
#     elements/s; and the BM_HostCanary host-speed canary), each row
#     the median of five interleaved repetitions, and
#   - `oova_bench all` wall time (the "suite" section): OOVA_SCALE
#     0.25 and 1.0, each on one thread and on every core (nproc
#     threads), the median of three runs.
#
# Usage:
#   scripts/bench_speed.sh [--build-dir DIR] [--out FILE]
#                          [--min-time SECONDS] [--set-baseline]
#                          [--check]
#
# Default mode re-measures and rewrites the "current" section of the
# output file, preserving the recorded "baseline" (when --out points
# somewhere fresh, e.g. a CI artifact, the record is seeded from the
# checked-in repo-root file so the baseline rides along).
# --set-baseline records the measurement as the baseline instead
# (done once, before a perf change lands). --check additionally
# compares the fresh measurement against the checked-in "current"
# section at the repo root and prints a GitHub-style ::warning:: per
# metric that regressed by more than 20% — it never fails the build
# (timing on shared CI runners is noisy; the warning is a prompt to
# look, not a gate), and the measurement is still recorded to --out.
# Suite wall times are compared the same way (slower by more than
# 20%); the all-cores rows only when nproc matches the reference.
# Every comparison is normalized by the host canary, BM_HostCanary,
# which runs no oova code.
#
# Throughput is wall-clock dependent: only compare numbers measured
# on the same machine. The checked-in numbers document the dev
# container this repo is grown in.
set -euo pipefail

BUILD_DIR=build
OUT=""
MIN_TIME=0.5
MODE=current
CHECK=0

while [ $# -gt 0 ]; do
    case "$1" in
    --build-dir)
        BUILD_DIR="$2"
        shift 2
        ;;
    --out)
        OUT="$2"
        shift 2
        ;;
    --min-time)
        MIN_TIME="$2"
        shift 2
        ;;
    --set-baseline)
        MODE=baseline
        shift
        ;;
    --check)
        CHECK=1
        shift
        ;;
    *)
        echo "bench_speed: unknown argument '$1'" >&2
        exit 2
        ;;
    esac
done

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
[ -n "$OUT" ] || OUT="$ROOT/BENCH_simspeed.json"

BENCH="$BUILD_DIR/oova_bench"
MICRO="$BUILD_DIR/simspeed"
if [ ! -x "$BENCH" ]; then
    echo "bench_speed: '$BENCH' not found (build first)" >&2
    exit 2
fi

# Pin the trace scale: throughput numbers are only comparable at the
# scale they were measured at. 0.5 matches bench/simspeed.cc's cache.
export OOVA_SCALE=0.5

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# Microbenchmarks (optional: the binary only exists when
# google-benchmark is installed). Every row runs five times, all
# repetitions shuffled together, and records its median: the host
# canary then samples the same stretch of host speed as the rows it
# normalizes, instead of only the last few seconds.
if [ -x "$MICRO" ]; then
    "$MICRO" --benchmark_min_time="$MIN_TIME" \
        --benchmark_repetitions=5 \
        --benchmark_enable_random_interleaving=true \
        --benchmark_report_aggregates_only=true \
        --benchmark_format=json > "$TMP/micro.json" 2> /dev/null
else
    echo "bench_speed: '$MICRO' not built; recording the suite only" >&2
fi

# Suite wall time: one "<scale> <1|all> <seconds>" line per run.
NPROC="$(nproc)"
for scale in 0.25 1.0; do
    for cores in 1 all; do
        threads=1
        if [ "$cores" = all ]; then
            threads="$NPROC"
        fi
        for _ in 1 2 3; do
            t0="$(date +%s%N)"
            OOVA_SCALE="$scale" "$BENCH" all --threads "$threads" \
                > /dev/null
            t1="$(date +%s%N)"
            echo "$scale $cores $(((t1 - t0) / 1000))e-6" \
                >> "$TMP/suite.txt"
        done
    done
done

# --dirty: a number measured from an uncommitted tree must not be
# attributed to a commit that cannot reproduce it.
LABEL="$(git -C "$ROOT" describe --always --dirty 2> /dev/null || echo unknown)"

python3 - "$TMP" "$OUT" "$MODE" "$CHECK" "$LABEL" "$ROOT/BENCH_simspeed.json" \
    "$NPROC" << 'EOF'
import json
import os
import statistics
import sys

tmp, out, mode, check, label, ref_path, nproc = sys.argv[1:8]

# ---- parse google-benchmark: name -> median items_per_second. The
# mem layer's rows count elements, and the host canary table updates,
# so each gets its own section.
micro = {}
mem = {}
canary = None
micro_path = os.path.join(tmp, "micro.json")
if os.path.exists(micro_path):
    with open(micro_path) as f:
        for b in json.load(f)["benchmarks"]:
            if (b.get("aggregate_name") != "median"
                    or "items_per_second" not in b):
                continue
            name = b["run_name"]
            rate = int(b["items_per_second"])
            if name == "BM_HostCanary":
                canary = rate
            elif name.startswith(("BM_MemReserve", "BM_TlbTranslate")):
                mem[name] = rate
            else:
                micro[name] = rate

# ---- suite wall time: "scale=S threads=1|all" -> median seconds
runs = {}
with open(os.path.join(tmp, "suite.txt")) as f:
    for line in f:
        scale, cores, secs = line.split()
        runs.setdefault(f"scale={scale} threads={cores}", []).append(
            float(secs))
suite = {
    "nproc": int(nproc),
    "runs": 3,
    "wall_s": {k: round(statistics.median(v), 3) for k, v in runs.items()},
}

measurement = {
    "label": label,
    "scale": 0.5,
    "microbench_instr_per_sec": micro,
    "mem_elems_per_sec": mem,
    "suite": suite,
}
if canary:
    measurement["host_canary_per_sec"] = canary

# Start from the record at --out; a fresh --out location inherits
# the checked-in record so its baseline (and anything else already
# tracked) is preserved alongside the new measurement.
record = {}
for path in (out, ref_path):
    if os.path.exists(path):
        with open(path) as f:
            record = json.load(f)
        break
# Schema 2 added the "suite" section, schema 3 the mem layer's
# "mem_elems_per_sec" and the "host_canary_per_sec" canary; schema 4
# dropped "sweep_instr_per_sec" with the oova_bench timing figure
# that fed it (BM_SweepEngine/* measures the same batch path).
record["schema"] = 4
record.setdefault(
    "note",
    "Simulated instructions/sec (OOVA_SCALE=0.5, --threads 1) and "
    "`oova_bench all` wall seconds (suite). Wall-clock dependent: "
    "compare only numbers from the same machine. Update with "
    "scripts/bench_speed.sh; see README 'Performance'.",
)

if int(check):
    ref = {}
    if os.path.exists(ref_path):
        with open(ref_path) as f:
            ref = json.load(f).get("current", {})
    # The checked-in numbers come from a different machine than the
    # CI runner, so absolute throughput would warn (or stay silent)
    # based on host speed, not code. Normalize by BM_HostCanary, a
    # fixed table-update loop that runs no oova code, so host-speed
    # differences roughly cancel and the 20% threshold mostly tracks
    # simulator regressions (README "Performance" says how roughly).
    old_canary = ref.get("host_canary_per_sec")
    new_canary = measurement.get("host_canary_per_sec")
    host = (new_canary / old_canary
            if old_canary and new_canary else 1.0)
    if host != 1.0:
        print(f"host-speed normalization (BM_HostCanary): {host:.2f}x")
    for kind in ("microbench_instr_per_sec", "mem_elems_per_sec"):
        for name, old in ref.get(kind, {}).items():
            new = measurement[kind].get(name)
            if not new or not old:
                continue
            scaled = old * host
            if new < 0.8 * scaled:
                print(
                    f"::warning::simulator throughput regression: "
                    f"{name} {old} -> {new} items/s "
                    f"({new / scaled:.2f}x host-normalized, "
                    f"checked-in reference {ref.get('label', '?')})"
                )
            else:
                print(f"{name}: {old} -> {new} items/s "
                      f"({new / scaled:.2f}x host-normalized)")
    # Wall time scales inversely with host speed. The all-cores rows
    # also depend on the core count, so they compare only on a host
    # with as many cores as the reference's.
    ref_suite = ref.get("suite", {})
    same_cores = ref_suite.get("nproc") == suite["nproc"]
    for name, old in ref_suite.get("wall_s", {}).items():
        new = suite["wall_s"].get(name)
        if not new or not old or (name.endswith("all") and not same_cores):
            continue
        scaled = old / host
        if new > 1.2 * scaled:
            print(
                f"::warning::suite wall-time regression: {name} "
                f"{old} -> {new} s ({new / scaled:.2f}x host-normalized, "
                f"checked-in reference {ref.get('label', '?')})"
            )
        else:
            print(f"suite {name}: {old} -> {new} s "
                  f"({new / scaled:.2f}x host-normalized)")

record["baseline" if mode == "baseline" else "current"] = measurement
with open(out, "w") as f:
    json.dump(record, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"bench_speed: wrote {mode} measurement ({label}) to {out}")
EOF

#!/usr/bin/env bash
# Result-store gate: run every figure twice against one result store —
# cold (populating it), then warm at 4 threads — and require
# (a) byte-identical stdout per figure and (b) a >90% aggregate hit
# rate on the warm pass. Proves the store key covers everything that
# matters and that the store never perturbs figure output. Then
# corrupt one entry (it must be quarantined and healed) and check
# that results sampled under OOVA_TELEMETRY=1 never serve a run
# without it.
#
# usage: check_store.sh <oova_bench> <store-dir> <out-dir>
#
# Writes per-figure outputs and [store] stat lines into <out-dir>
# (kept as a CI artifact).
set -u

BENCH="${1:?usage: check_store.sh <oova_bench> <store-dir> <out-dir>}"
STORE="${2:?usage: check_store.sh <oova_bench> <store-dir> <out-dir>}"
OUT="${3:?usage: check_store.sh <oova_bench> <store-dir> <out-dir>}"

: "${OOVA_SCALE:=0.25}"
export OOVA_SCALE

mkdir -p "$OUT" || exit 1

figures="$("$BENCH" --list | awk '{print $1}')" || {
    echo "check_store: cannot list figures" >&2
    exit 1
}

fail=0
for fig in $figures; do
    if ! "$BENCH" "$fig" --store "$STORE" --store-stats \
            > "$OUT/$fig.cold.txt" 2> "$OUT/$fig.cold.stats.txt"; then
        echo "FAIL: $fig cold run exited non-zero" >&2
        fail=1
    fi
done
for fig in $figures; do
    if ! "$BENCH" "$fig" --store "$STORE" --threads 4 --store-stats \
            > "$OUT/$fig.warm.txt" 2> "$OUT/$fig.warm.stats.txt"; then
        echo "FAIL: $fig warm run exited non-zero" >&2
        fail=1
    fi
    if ! diff -u "$OUT/$fig.cold.txt" "$OUT/$fig.warm.txt" \
            > "$OUT/$fig.diff.txt"; then
        echo "FAIL: $fig warm-store output differs from cold run" \
            "(see $fig.diff.txt)" >&2
        fail=1
    fi
done

# Aggregate the warm pass's [store] lines: with every figure already
# computed by the cold pass, nearly everything must hit. The slack
# below 100% is exactly the uncacheable jobs (pipe-traced runs and
# other observe-side-effect sweeps), which never consult the store.
hits=0
misses=0
for fig in $figures; do
    line="$(grep '^\[store\]' "$OUT/$fig.warm.stats.txt" | tail -1)"
    h="$(printf '%s\n' "$line" | sed -n 's/.*hits=\([0-9]*\).*/\1/p')"
    m="$(printf '%s\n' "$line" |
        sed -n 's/.*misses=\([0-9]*\).*/\1/p')"
    hits=$((hits + ${h:-0}))
    misses=$((misses + ${m:-0}))
done

total=$((hits + misses))
echo "check_store: warm pass: $hits hits, $misses misses" \
    "($total lookups)"
if [ "$total" -eq 0 ]; then
    echo "FAIL: warm pass recorded no store lookups at all" >&2
    fail=1
elif [ $((hits * 100)) -lt $((total * 90)) ]; then
    echo "FAIL: warm-pass hit rate below 90%" >&2
    fail=1
fi

# Corruption pass: truncate one stored entry mid-file (the on-disk
# shape a lost write leaves behind) and re-run every figure warm.
# Whichever figure owns the victim must quarantine it to <key>.bad
# and re-simulate — same bytes out, no crash, no stale hit — and the
# next store() heals the key, so the hit-rate gate stays satisfied:
# one corrupt entry costs exactly one miss.
victim="$(ls "$STORE"/*.json 2>/dev/null | head -1)"
if [ -z "$victim" ]; then
    echo "FAIL: corruption pass found no store entries to corrupt" >&2
    fail=1
else
    size="$(wc -c < "$victim")"
    truncate -s $((size / 2)) "$victim" || {
        echo "FAIL: cannot truncate $victim" >&2
        fail=1
    }
    for fig in $figures; do
        if ! "$BENCH" "$fig" --store "$STORE" --threads 4 \
                --store-stats > "$OUT/$fig.corrupt.txt" \
                2> "$OUT/$fig.corrupt.stats.txt"; then
            echo "FAIL: $fig corrupt-store run exited non-zero" >&2
            fail=1
        fi
        if ! diff -u "$OUT/$fig.cold.txt" "$OUT/$fig.corrupt.txt" \
                > "$OUT/$fig.corrupt.diff.txt"; then
            echo "FAIL: $fig corrupt-store output differs from cold" \
                "run (see $fig.corrupt.diff.txt)" >&2
            fail=1
        fi
    done
    bad="$(ls "$STORE"/*.bad 2>/dev/null | wc -l)"
    if [ "$bad" -lt 1 ]; then
        echo "FAIL: corrupt entry was not quarantined to <key>.bad" >&2
        fail=1
    fi
    quarantined=0
    for fig in $figures; do
        line="$(grep '^\[store\]' "$OUT/$fig.corrupt.stats.txt" |
            tail -1)"
        q="$(printf '%s\n' "$line" |
            sed -n 's/.*quarantined=\([0-9]*\).*/\1/p')"
        quarantined=$((quarantined + ${q:-0}))
    done
    echo "check_store: corruption pass: $bad .bad file(s)," \
        "$quarantined quarantine(s) reported"
    if [ "$quarantined" -lt 1 ]; then
        echo "FAIL: no run reported quarantined=N in its [store]" \
            "line" >&2
        fail=1
    fi
fi

# Telemetry pass: OOVA_TELEMETRY=1 turns occupancy sampling on, so
# the results it stores must not serve a run without it. Fill a fresh
# store with one figure under the variable, then run that figure warm
# without it: its --stats dump must equal a run with no store at all.
tstore="$OUT/telemetry-store"
rm -rf "$tstore"
if ! OOVA_TELEMETRY=1 "$BENCH" fig4 --store "$tstore" > /dev/null ||
        ! "$BENCH" fig4 --store "$tstore" \
            --stats "$OUT/fig4.telemetry-warm.txt" > /dev/null ||
        ! "$BENCH" fig4 --stats "$OUT/fig4.telemetry-none.txt" \
            > /dev/null; then
    echo "FAIL: telemetry pass: a fig4 run exited non-zero" >&2
    fail=1
elif ! diff -u "$OUT/fig4.telemetry-none.txt" \
        "$OUT/fig4.telemetry-warm.txt" > "$OUT/telemetry.diff.txt"; then
    echo "FAIL: a store filled under OOVA_TELEMETRY=1 changed the" \
        "--stats of a run without it (see telemetry.diff.txt)" >&2
    fail=1
else
    echo "check_store: telemetry pass: --stats equal"
fi

[ "$fail" -eq 0 ] && echo "check_store: OK"
exit "$fail"

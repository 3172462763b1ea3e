#!/usr/bin/env bash
# Invariant-audit gate: run every registered figure with the full
# audit (OOVA_CHECK=2) and fail on any checker violation.
#
# The golden gate (check_goldens.sh) proves figure *output* is
# unchanged; this gate proves the machine's internal conservation
# laws (free-list/refcount conservation, wakeup subscriptions, event
# calendar soundness, queue age order, memory window sanity, TLB
# structure) hold on every one of those runs. A violation prints a
# structured "OOVA-CHECK VIOLATION cycle=... checker=... detail=..."
# line on stderr and turns the bench exit code non-zero.
#
# Usage:
#   scripts/invariant_audit.sh [path/to/oova_bench] [audit.log]
#
# The optional second argument captures all audit stderr into a log
# file (uploaded as a CI artifact).

set -u -o pipefail

BENCH="${1:-build/oova_bench}"
LOG="${2:-}"

if [ ! -x "$BENCH" ]; then
    echo "invariant_audit: bench binary '$BENCH' not found" >&2
    exit 2
fi

export OOVA_SCALE="${OOVA_SCALE:-0.25}"
export OOVA_CHECK=2

figures="$("$BENCH" --list | awk '{print $1}')" || {
    echo "invariant_audit: '$BENCH --list' failed" >&2
    exit 2
}
if [ -z "$figures" ]; then
    echo "invariant_audit: '$BENCH --list' produced no figures" >&2
    exit 2
fi

if [ -n "$LOG" ]; then
    : > "$LOG"
fi

fail=0
failed=""
for fig in $figures; do
    echo "auditing $fig (OOVA_CHECK=2, OOVA_SCALE=$OOVA_SCALE)"
    if [ -n "$LOG" ]; then
        "$BENCH" "$fig" > /dev/null 2>> "$LOG"
    else
        "$BENCH" "$fig" > /dev/null
    fi
    rc=$?
    if [ "$rc" -ne 0 ]; then
        echo "INVARIANT AUDIT FAILED: $fig (exit $rc)" >&2
        failed="$failed $fig"
        fail=1
    fi
done

if [ -n "$LOG" ] && [ -s "$LOG" ]; then
    echo "audit log ($LOG):" >&2
    cat "$LOG" >&2
fi

if [ "$fail" -ne 0 ]; then
    echo "invariant-audit gate FAILED:$failed" >&2
    exit 1
fi
echo "invariant-audit gate passed ($(echo "$figures" | wc -w) figures)"

#!/usr/bin/env bash
# Golden-figure regression gate.
#
# Diffs the text output of every registered figure against the
# checked-in goldens under tests/golden/, captured at
# OOVA_SCALE=0.25. Figure output is deterministic across thread
# counts and machines (pure simulators, submission-order result
# collection), so any diff is a real behavior change: either a bug,
# or an intentional model change that must re-capture its goldens
# with --update in the same commit.
#
# A figure that exits non-zero fails the gate on a line of its own,
# whatever it printed. Under OOVA_CHECK=2 (the invariant_audit ctest
# entry) that is how an invariant violation fails it: the audit
# prints an "OOVA-CHECK VIOLATION ..." line on stderr and the figure
# exits 3.
#
# Usage:
#   scripts/check_goldens.sh [path/to/oova_bench]            # check
#   scripts/check_goldens.sh [path/to/oova_bench] --update   # re-capture

# pipefail: a bench binary that dies after printing a matching table
# must still fail the gate.
set -u -o pipefail

BENCH="${1:-build/oova_bench}"
MODE="${2:-check}"
GOLDEN_DIR="$(cd "$(dirname "$0")/.." && pwd)/tests/golden"

if [ ! -x "$BENCH" ]; then
    echo "check_goldens: bench binary '$BENCH' not found" >&2
    exit 2
fi

# Pin the scale: goldens are only comparable at the scale they were
# captured at.
export OOVA_SCALE=0.25

# pipefail is inherited by the substitution's subshell, so a --list
# that dies mid-pipe fails here instead of yielding a silently
# truncated figure set (which would misreport stale/missing goldens).
figures="$("$BENCH" --list | awk '{print $1}')" || {
    echo "check_goldens: '$BENCH --list' failed" >&2
    exit 2
}

# An empty figure list means --list itself failed; a gate that
# "passes" over nothing is worse than one that fails.
if [ -z "$figures" ]; then
    echo "check_goldens: '$BENCH --list' produced no figures" >&2
    exit 2
fi

if [ "$MODE" = "--update" ]; then
    mkdir -p "$GOLDEN_DIR"
    for fig in $figures; do
        echo "capturing $fig"
        "$BENCH" "$fig" > "$GOLDEN_DIR/$fig.txt" || exit 1
    done
    echo "goldens updated in $GOLDEN_DIR"
    exit 0
fi

fail=0
missing=""
for fig in $figures; do
    golden="$GOLDEN_DIR/$fig.txt"
    if [ ! -f "$golden" ]; then
        missing="$missing $fig"
        fail=1
        continue
    fi
    "$BENCH" "$fig" | diff -u "$golden" - > /tmp/golden_diff_$$
    status=("${PIPESTATUS[@]}")
    if [ "${status[0]}" -ne 0 ]; then
        echo "FIGURE FAILED: $fig (exit ${status[0]})" >&2
        fail=1
    fi
    if [ "${status[1]}" -ne 0 ]; then
        echo "GOLDEN MISMATCH: $fig" >&2
        cat /tmp/golden_diff_$$ >&2
        fail=1
    fi
done
rm -f /tmp/golden_diff_$$

# Every registered figure must be golden-gated: a new
# figure registered without a capture would otherwise dodge the gate
# until someone noticed. Name the offenders explicitly.
if [ -n "$missing" ]; then
    echo "MISSING GOLDENS:$missing" >&2
    echo "every registered figure needs tests/golden/<fig>.txt;" \
         "capture with: $0 $BENCH --update" >&2
fi

# Goldens for figures that no longer exist are also an error: they
# mean the gate is diffing nothing. Aggregate and name them all,
# symmetric with MISSING GOLDENS above. (Membership is tested with a
# plain loop: `echo | grep -q` trips pipefail when grep exits on an
# early match and echo takes SIGPIPE.)
orphans=""
for golden in "$GOLDEN_DIR"/*.txt; do
    fig="$(basename "$golden" .txt)"
    registered=0
    for f in $figures; do
        if [ "$f" = "$fig" ]; then
            registered=1
            break
        fi
    done
    if [ "$registered" -eq 0 ]; then
        orphans="$orphans $fig"
        fail=1
    fi
done
if [ -n "$orphans" ]; then
    echo "ORPHAN GOLDENS:$orphans" >&2
    echo "these goldens match no registered figure; delete them," \
         "or re-register the figure they belong to" >&2
fi

if [ "$fail" -ne 0 ]; then
    echo "golden-figure gate FAILED" >&2
    exit 1
fi
echo "golden-figure gate passed ($(echo "$figures" | wc -w) figures)"

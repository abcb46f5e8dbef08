#!/usr/bin/env bash
# Persistent result cache gate (make cache-gate; CI runs exactly this).
#
# A cold tiny-preset run populates the on-disk result cache, then a warm
# run must serve 100% of the jobs from it (-require-cached exits
# non-zero otherwise) and render a byte-identical report once the
# per-job timing parenthetical and the jobs-summary line are stripped —
# the same normalisation as scripts/e2e_remote.sh.
set -euo pipefail

cd "$(dirname "$0")/.."

EXPS=fig1b,mc,table1,fig7a,fig7b,defense
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

go build -o "$WORK/dramlocker" ./cmd/dramlocker

"$WORK/dramlocker" -preset tiny -exp "$EXPS" -cache-dir "$WORK/rescache" -quiet > "$WORK/cold.txt"
"$WORK/dramlocker" -preset tiny -exp "$EXPS" -cache-dir "$WORK/rescache" -quiet -require-cached > "$WORK/warm.txt"

# Strip only the per-job timing header parenthetical and the
# jobs-summary line; everything else (including parenthesized table
# payloads) must match byte for byte.
norm() { sed -E 's/^(=== .*) \([^)]*\)( ===)$/\1\2/; /^[0-9]+ jobs, /d' "$1"; }
norm "$WORK/cold.txt" > "$WORK/cold.norm"
norm "$WORK/warm.txt" > "$WORK/warm.norm"
if ! diff -u "$WORK/cold.norm" "$WORK/warm.norm"; then
    echo "FAIL: warm cached report diverged from the cold run"
    exit 1
fi
echo "cache-gate: warm run served everything from cache ($(wc -l < "$WORK/rescache/plane.jsonl") entries)"

#!/usr/bin/env bash
# Loopback end-to-end gate for the broker transport (make e2e-remote).
#
# Proves the transport-independence guarantee on real daemons:
#
#   queue: a tiny preset run submitted through a dramlockerd -broker job
#          queue (-broker), served by a registered pull worker
#          (dramlockerd -pull), must render the same report as the
#          in-process pool at workers 1 and 4 (modulo timings, normalised
#          exactly like CI's cold/warm cache gate), and a warm re-run
#          over a shared -cache-dir must replay 100% from cache
#          (-require-cached).
#   crash: a journaled broker (-journal-dir) is SIGKILLed mid-run and
#          restarted on the same address; the run must survive on the
#          replayed backlog, the report must stay byte-identical to
#          local, and any re-executed in-flight work must surface as
#          byte-identical duplicate cache hits.
set -euo pipefail

cd "$(dirname "$0")/.."

EXPS=fig1b,mc,table1,fig7a,fig7b,defense
WORK=$(mktemp -d)
BROKER_PID=""
PULL_PID=""
CRASH_PID=""
PULL2_PID=""
RUN_PID=""
cleanup() {
    for pid in "$BROKER_PID" "$PULL_PID" "$CRASH_PID" "$PULL2_PID" "$RUN_PID"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/dramlocker" ./cmd/dramlocker
go build -o "$WORK/dramlockerd" ./cmd/dramlockerd

# Strip the per-job timing parenthetical and the summary line — the same
# normalisation as CI's cache gate; everything else must match byte for
# byte.
norm() { sed -E 's/^(=== .*) \([^)]*\)( ===)$/\1\2/; /^[0-9]+ jobs, /d' "$1"; }

run_local()  { "$WORK/dramlocker" -preset tiny -exp "$EXPS" -workers "$1" -quiet; }

# ---- Queue (broker) topology ------------------------------------------
# A broker that holds no registry, one registered pull worker that does,
# and the scheduler submitting over -broker. Port 0 lets the kernel pick
# a free port; the broker binds before it logs, so the "brokering on
# host:port" line is also the ready signal.
"$WORK/dramlockerd" -broker -addr 127.0.0.1:0 >"$WORK/broker.log" 2>&1 &
BROKER_PID=$!

BADDR=""
for i in $(seq 1 100); do
    BADDR=$(sed -nE 's/.* brokering on (127\.0\.0\.1:[0-9]+) .*/\1/p' "$WORK/broker.log" | head -n1)
    [ -n "$BADDR" ] && break
    kill -0 "$BROKER_PID" 2>/dev/null || { echo "broker died:"; cat "$WORK/broker.log"; exit 1; }
    sleep 0.1
done
[ -n "$BADDR" ] || { echo "broker never came up:"; cat "$WORK/broker.log"; exit 1; }
echo "broker up on $BADDR"

"$WORK/dramlockerd" -pull "$BADDR" -preset tiny -name pull1 >"$WORK/pull.log" 2>&1 &
PULL_PID=$!

run_queue() { "$WORK/dramlocker" -preset tiny -exp "$EXPS" -workers "$1" -quiet -broker "$BADDR" "${@:2}"; }

for w in 1 4; do
    run_local "$w" > "$WORK/local$w.txt"
    norm "$WORK/local$w.txt" > "$WORK/local$w.norm"
    run_queue "$w" > "$WORK/queue$w.txt"
    norm "$WORK/queue$w.txt" > "$WORK/queue$w.norm"
    if ! diff -u "$WORK/local$w.norm" "$WORK/queue$w.norm"; then
        echo "FAIL: queue report diverged from local at workers=$w"
        exit 1
    fi
    echo "workers=$w: queue report byte-identical to local"
done

# Cache-hit replay across the transport: the cold run populates the disk
# cache, the warm run must serve 100% from it — replay happens
# scheduler-side, before any submission, so the gate passes even with
# the queue in front.
run_queue 4 -cache-dir "$WORK/qcache" > "$WORK/qcold.txt"
run_queue 4 -cache-dir "$WORK/qcache" -require-cached > "$WORK/qwarm.txt"
norm "$WORK/qcold.txt" > "$WORK/qcold.norm"
norm "$WORK/qwarm.txt" > "$WORK/qwarm.norm"
diff -u "$WORK/qcold.norm" "$WORK/qwarm.norm"
echo "warm -broker run replayed 100% from cache ($(wc -l < "$WORK/qcache/plane.jsonl") entries)"

# ---- Crash recovery (journaled broker) --------------------------------
# SIGKILL a -journal-dir broker mid-run, restart it on the same address
# over the same journal, and require the run to finish byte-identical to
# local: no shard lost (the diff catches a zero-run), no shard counted
# twice (re-executed in-flight work must report as byte-identical
# duplicate cache hits, which the report never sees).
#
# Ordering makes the kill deterministic: the scheduler submits against a
# broker with NO worker attached, so the backlog only accumulates (the
# tiny preset finishes in tens of milliseconds once a worker serves it —
# far too fast to reliably interrupt). The kill lands after submissions
# are journaled but before anything can complete; the worker joins only
# after the restart and drains the replayed backlog.
JDIR="$WORK/journal"

# stat_of ADDR FIELD pulls one integer out of `dramlocker -stats -json`
# (the same GET /v2/metrics the operator CLI uses).
stat_of() {
    "$WORK/dramlocker" -broker "$1" -stats -json 2>/dev/null \
        | sed -nE "s/.*\"$2\": ([0-9]+).*/\1/p" | head -n1
}

start_crash_broker() { # addr logfile
    "$WORK/dramlockerd" -broker -addr "$1" -journal-dir "$JDIR" -name crashbroker >"$2" 2>&1 &
    CRASH_PID=$!
}

start_crash_broker 127.0.0.1:0 "$WORK/crash1.log"
CADDR=""
for i in $(seq 1 100); do
    CADDR=$(sed -nE 's/.* brokering on (127\.0\.0\.1:[0-9]+) .*/\1/p' "$WORK/crash1.log" | head -n1)
    [ -n "$CADDR" ] && break
    kill -0 "$CRASH_PID" 2>/dev/null || { echo "crash-leg broker died:"; cat "$WORK/crash1.log"; exit 1; }
    sleep 0.1
done
[ -n "$CADDR" ] || { echo "crash-leg broker never came up:"; cat "$WORK/crash1.log"; exit 1; }
echo "journaled broker up on $CADDR (journal $JDIR)"

"$WORK/dramlocker" -preset tiny -exp "$EXPS" -workers 4 -quiet -broker "$CADDR" > "$WORK/crash.txt" &
RUN_PID=$!

# Wait until the backlog holds journaled (fsynced-before-ack)
# submissions, then pull the plug.
SUBMITTED=0
for i in $(seq 1 200); do
    SUBMITTED=$(stat_of "$CADDR" submitted)
    SUBMITTED=${SUBMITTED:-0}
    [ "$SUBMITTED" -ge 1 ] && break
    kill -0 "$RUN_PID" 2>/dev/null || { echo "FAIL: run exited with no worker attached:"; cat "$WORK/crash.txt"; exit 1; }
    sleep 0.05
done
[ "$SUBMITTED" -ge 1 ] || { echo "FAIL: no submission reached the broker before the kill window closed"; exit 1; }
kill -9 "$CRASH_PID" 2>/dev/null
wait "$CRASH_PID" 2>/dev/null || true
sleep 0.3
kill -0 "$RUN_PID" 2>/dev/null || { echo "FAIL: scheduler exited when the broker was killed"; cat "$WORK/crash.txt"; exit 1; }
echo "broker SIGKILLed with $SUBMITTED task(s) journaled; scheduler still running"

# Restart over the same journal on the same address (retrying while the
# old socket drains). The replay log line is the recovery receipt.
CRASH_PID=""
for i in $(seq 1 50); do
    start_crash_broker "$CADDR" "$WORK/crash2.log"
    for j in $(seq 1 50); do
        grep -q "brokering on" "$WORK/crash2.log" && break
        kill -0 "$CRASH_PID" 2>/dev/null || break
        sleep 0.1
    done
    grep -q "brokering on" "$WORK/crash2.log" && break
    sleep 0.2
done
grep -q "brokering on" "$WORK/crash2.log" || { echo "restarted broker never came up:"; cat "$WORK/crash2.log"; exit 1; }
grep -q "journal .* replayed" "$WORK/crash2.log" || { echo "FAIL: restarted broker logged no journal replay:"; cat "$WORK/crash2.log"; exit 1; }
echo "broker restarted on $CADDR: $(grep 'replayed' "$WORK/crash2.log" | head -n1)"

# Only now does a worker join — it drains the backlog the journal saved.
"$WORK/dramlockerd" -pull "$CADDR" -preset tiny -name pull2 >"$WORK/pull2.log" 2>&1 &
PULL2_PID=$!

if ! wait "$RUN_PID"; then
    echo "FAIL: run did not survive the broker crash"
    cat "$WORK/crash.txt"
    exit 1
fi
RUN_PID=""
norm "$WORK/crash.txt" > "$WORK/crash.norm"
if ! diff -u "$WORK/local4.norm" "$WORK/crash.norm"; then
    echo "FAIL: crash-recovered report diverged from local"
    exit 1
fi

# In-flight work at kill time may run twice (the lease record is the
# unsynced journal tier), but determinism demands every duplicate be
# byte-identical to the recorded winner.
DUPS=$(stat_of "$CADDR" duplicates); DUPS=${DUPS:-0}
HITS=$(stat_of "$CADDR" dup_cache_hits); HITS=${HITS:-0}
if [ "$DUPS" != "$HITS" ]; then
    echo "FAIL: $DUPS duplicate result(s) but only $HITS byte-identical ($((DUPS - HITS)) diverged)"
    exit 1
fi
echo "crash recovery: report byte-identical to local ($DUPS duplicate(s), all byte-identical cache hits)"

echo "e2e-remote: OK"

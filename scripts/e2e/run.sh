#!/usr/bin/env bash
# Process-level end-to-end chaos suite: real binaries, real TCP, a real
# kill -9 inside the journal's write->fsync window.
#
# What the crash test proves: the server is SIGKILLed (by its own
# -crash-after hook) between a journaled batch's buffered write and its
# fsync — the exact window where bytes exist only in the page cache and
# no ack has been sent. The restarted server replays the journal, the
# clients retry their unacked uploads against it, and the final dataset
# must hold every executed run exactly once: nothing acked is lost,
# nothing retried is double-counted.
#
# Usage:
#   scripts/e2e/run.sh           # full suite: smoke + seeds + USE verdict
#   scripts/e2e/run.sh -smoke    # crash/restart/convergence + uucs-top
#   scripts/e2e/run.sh -seeds    # replay scripts/e2e/regression_seeds.json
#
# Set E2E_BIN to a directory of prebuilt uucs-* binaries to skip the
# build (CI builds once and reuses across jobs). Set E2E_PROTOCOL to
# v2 or v3 to pin every client's wire framing (default: auto, the
# negotiated path); with v3 the smoke also asserts each client actually
# registered over the binary framing, so the crash window is exercised
# with uploads that arrived as binary frames.
set -euo pipefail

REPO="$(cd "$(dirname "$0")/../.." && pwd)"
cd "$REPO"

MODE="${1:-all}"
PROTO="${E2E_PROTOCOL:-auto}"

WORK="$(mktemp -d /tmp/uucs-e2e.XXXXXX)"
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

say()  { printf 'e2e: %s\n' "$*"; }
fail() { printf 'e2e: FAIL: %s\n' "$*" >&2; exit 1; }

# --- binaries ---------------------------------------------------------

if [ -n "${E2E_BIN:-}" ]; then
    BIN="$E2E_BIN"
    for b in uucs-server uucs-client uucs-top uucs-loadgen; do
        [ -x "$BIN/$b" ] || fail "E2E_BIN=$BIN is missing $b"
    done
    say "using prebuilt binaries from $BIN"
else
    BIN="$WORK/bin"
    say "building binaries into $BIN"
    go build -o "$BIN/" ./cmd/uucs-server ./cmd/uucs-client ./cmd/uucs-top ./cmd/uucs-loadgen
fi

# pick_free_port: probe for a free loopback port instead of trusting a
# fixed one, so parallel CI jobs (and the multi-node harness, which
# needs several servers at once) can't collide. Candidates are drawn
# from a wide randomized range and checked with a connect probe; the
# chosen port is used for both the first server and its post-crash
# restart (the restart must rebind the same address the round-1 clients
# are retrying against).
pick_free_port() {
    local p try
    for try in $(seq 1 50); do
        p=$((20000 + RANDOM % 20000))
        if ! (exec 3<>"/dev/tcp/127.0.0.1/$p") 2>/dev/null; then
            printf '%s\n' "$p"
            return 0
        fi
        exec 3>&- 2>/dev/null || true
    done
    fail "no free port found after 50 probes"
}

# wait_for_line FILE PATTERN: poll FILE until PATTERN appears (10s cap).
wait_for_line() {
    local file="$1" pattern="$2" i
    for i in $(seq 1 100); do
        grep -q "$pattern" "$file" 2>/dev/null && return 0
        sleep 0.1
    done
    fail "timed out waiting for '$pattern' in $file (contents: $(cat "$file" 2>/dev/null))"
}

# --- the crash/restart/convergence smoke ------------------------------

smoke() {
    local CLIENTS=3 RUNS=4 ROUNDS=2
    local STATE="$WORK/state" LOG1="$WORK/server1.log" LOG2="$WORK/server2.log"
    local OUT="$WORK/results.txt"

    # Journal op budget for round 1: 1 testcase op + $CLIENTS
    # registrations + $CLIENTS upload batches. Crashing after
    # (1 + CLIENTS + 1) ops lands inside the upload wave: at least one
    # client's batch is written but not yet fsynced or acked.
    local CRASH_AFTER=$((1 + CLIENTS + 1))

    local ADDR DEBUG_ADDR
    ADDR="127.0.0.1:$(pick_free_port)"

    say "round 1: server on $ADDR with -crash-after $CRASH_AFTER"
    "$BIN/uucs-server" -addr "$ADDR" -debug-addr 127.0.0.1:0 \
        -state "$STATE" -generate 30 -out "$OUT" -seed 7 \
        -crash-after "$CRASH_AFTER" >"$LOG1" 2>&1 &
    SERVER_PID=$!
    wait_for_line "$LOG1" 'listening on'

    say "round 1: $CLIENTS clients x $RUNS runs against $ADDR (protocol $PROTO)"
    local pids=() i
    for i in $(seq 1 "$CLIENTS"); do
        "$BIN/uucs-client" -server "$ADDR" -store "$WORK/client$i" \
            -hostname "e2e-host-$i" -seed "$((100 + i))" -runs "$RUNS" \
            -protocol "$PROTO" \
            -timeout 5s -retries 12 -retry-base 100ms -retry-max 1s \
            >"$WORK/client$i.round1.log" 2>&1 &
        pids+=($!)
    done

    # The server must die by its own hand: SIGKILL (exit 137), with the
    # crash marker proving the kill landed between write and fsync.
    local code=0
    wait "$SERVER_PID" || code=$?
    SERVER_PID=""
    [ "$code" -eq 137 ] || fail "server exited $code, want 137 (SIGKILL by -crash-after)"
    [ -f "$STATE/crash.marker" ] || fail "no crash.marker: the kill did not come from the crash hook"
    say "server killed inside the write->fsync window: $(cat "$STATE/crash.marker")"

    say "restarting server on $ADDR from the journal"
    "$BIN/uucs-server" -addr "$ADDR" -debug-addr 127.0.0.1:0 \
        -state "$STATE" -out "$OUT" -seed 7 >"$LOG2" 2>&1 &
    SERVER_PID=$!
    wait_for_line "$LOG2" 'listening on'
    grep -q 'restored' "$LOG2" || fail "restart did not restore from $STATE"
    DEBUG_ADDR="$(sed -n 's|.*debug listener on http://\([0-9.]*:[0-9]*\)/.*|\1|p' "$LOG2")"
    [ -n "$DEBUG_ADDR" ] || fail "could not parse debug address from $LOG2"

    # Round-1 clients retry their unacked uploads against the restarted
    # server; every one must converge and exit 0.
    for i in "${!pids[@]}"; do
        code=0
        wait "${pids[$i]}" || code=$?
        [ "$code" -eq 0 ] || fail "round-1 client $((i + 1)) exited $code: $(cat "$WORK/client$((i + 1)).round1.log")"
    done
    say "round 1 converged: all clients acked despite the crash"
    if [ "$PROTO" = "v3" ]; then
        for i in $(seq 1 "$CLIENTS"); do
            grep -q 'wire protocol v3' "$WORK/client$i.round1.log" \
                || fail "client $i did not register over the v3 framing: $(cat "$WORK/client$i.round1.log")"
        done
        say "all clients registered over the v3 binary framing"
    fi

    say "round 2: same stores, continuing sequence numbers"
    pids=()
    for i in $(seq 1 "$CLIENTS"); do
        "$BIN/uucs-client" -server "$ADDR" -store "$WORK/client$i" \
            -hostname "e2e-host-$i" -seed "$((100 + i))" -runs "$RUNS" \
            -protocol "$PROTO" \
            -timeout 5s -retries 12 -retry-base 100ms -retry-max 1s \
            >"$WORK/client$i.round2.log" 2>&1 &
        pids+=($!)
    done
    for i in "${!pids[@]}"; do
        code=0
        wait "${pids[$i]}" || code=$?
        [ "$code" -eq 0 ] || fail "round-2 client $((i + 1)) exited $code: $(cat "$WORK/client$((i + 1)).round2.log")"
    done

    say "checking the live USE snapshot via uucs-top -addr $DEBUG_ADDR"
    local top
    top="$("$BIN/uucs-top" -addr "$DEBUG_ADDR")"
    printf '%s\n' "$top" | sed 's/^/e2e:   /'
    printf '%s\n' "$top" | grep -q 'USE health' || fail "uucs-top printed no USE header"
    printf '%s\n' "$top" | grep -q 'journal-fsync' || fail "uucs-top shows no journal telemetry"

    say "graceful shutdown and final flush"
    kill -TERM "$SERVER_PID"
    wait "$SERVER_PID" || true
    SERVER_PID=""

    # Convergence: every executed run exactly once. Each client executed
    # RUNS runs per round; record framing is one 'run <id>' line each.
    local WANT=$((CLIENTS * RUNS * ROUNDS)) GOT
    GOT="$(grep -c '^run ' "$OUT" || true)"
    [ "$GOT" -eq "$WANT" ] || fail "dataset has $GOT runs, want exactly $WANT (lost or duplicated batches)"
    say "PASS: $GOT/$WANT runs survived the mid-fsync crash exactly once"
}

# --- the segmented-journal restart smoke ------------------------------

# restart_smoke: SIGKILL the server after rotation has sealed several
# journal segments, then prove the restart reassembles state from the
# multi-segment journal exactly once. Unlike smoke() the kill is
# external (kill -9 from here, not the -crash-after hook) and lands
# after seals are observed on disk, so the replay that follows crosses
# real segment boundaries.
restart_smoke() {
    local CLIENTS=3 RUNS=6 ROUNDS=2 WANT_SEGS=2
    local STATE="$WORK/segstate" LOG1="$WORK/segserver1.log" LOG2="$WORK/segserver2.log"
    local OUT="$WORK/segresults.txt"

    local ADDR
    ADDR="127.0.0.1:$(pick_free_port)"

    # Tiny segments so a handful of uploads seals several; a huge
    # -flush so no snapshot compacts the sealed segments away before
    # the kill.
    say "restart: server on $ADDR with -journal-segment-bytes 1024"
    "$BIN/uucs-server" -addr "$ADDR" -state "$STATE" -generate 30 \
        -out "$OUT" -seed 7 -flush 1h -journal-segment-bytes 1024 \
        >"$LOG1" 2>&1 &
    SERVER_PID=$!
    wait_for_line "$LOG1" 'listening on'

    say "restart: $CLIENTS clients x $RUNS runs against $ADDR (protocol $PROTO)"
    local pids=() i
    for i in $(seq 1 "$CLIENTS"); do
        "$BIN/uucs-client" -server "$ADDR" -store "$WORK/segclient$i" \
            -hostname "e2e-seg-host-$i" -seed "$((200 + i))" -runs "$RUNS" \
            -protocol "$PROTO" \
            -timeout 5s -retries 12 -retry-base 100ms -retry-max 1s \
            >"$WORK/segclient$i.round1.log" 2>&1 &
        pids+=($!)
    done

    # Wait until rotation has sealed at least WANT_SEGS segments, then
    # SIGKILL — no flush, no goodbye, segments and a possibly-torn
    # active journal left behind.
    local segs=0
    for i in $(seq 1 100); do
        segs="$(ls "$STATE"/journal-*.seg 2>/dev/null | wc -l)"
        [ "$segs" -ge "$WANT_SEGS" ] && break
        sleep 0.1
    done
    [ "$segs" -ge "$WANT_SEGS" ] || fail "only $segs journal segments sealed, want >= $WANT_SEGS"
    kill -9 "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
    SERVER_PID=""
    say "restart: server SIGKILLed with $segs sealed segments on disk"

    say "restart: server back on $ADDR from the segmented journal"
    "$BIN/uucs-server" -addr "$ADDR" -state "$STATE" -out "$OUT" -seed 7 \
        -flush 1h -journal-segment-bytes 1024 >"$LOG2" 2>&1 &
    SERVER_PID=$!
    wait_for_line "$LOG2" 'listening on'
    grep -q 'restored' "$LOG2" || fail "restart did not restore from $STATE"

    # Round-1 clients ride through the kill: every one must converge.
    local code
    for i in "${!pids[@]}"; do
        code=0
        wait "${pids[$i]}" || code=$?
        [ "$code" -eq 0 ] || fail "restart round-1 client $((i + 1)) exited $code: $(cat "$WORK/segclient$((i + 1)).round1.log")"
    done
    say "restart: round 1 converged across the kill"

    say "restart: round 2, same stores, continuing sequence numbers"
    pids=()
    for i in $(seq 1 "$CLIENTS"); do
        "$BIN/uucs-client" -server "$ADDR" -store "$WORK/segclient$i" \
            -hostname "e2e-seg-host-$i" -seed "$((200 + i))" -runs "$RUNS" \
            -protocol "$PROTO" \
            -timeout 5s -retries 12 -retry-base 100ms -retry-max 1s \
            >"$WORK/segclient$i.round2.log" 2>&1 &
        pids+=($!)
    done
    for i in "${!pids[@]}"; do
        code=0
        wait "${pids[$i]}" || code=$?
        [ "$code" -eq 0 ] || fail "restart round-2 client $((i + 1)) exited $code: $(cat "$WORK/segclient$((i + 1)).round2.log")"
    done

    say "restart: graceful shutdown and final flush"
    kill -TERM "$SERVER_PID"
    wait "$SERVER_PID" || true
    SERVER_PID=""

    local WANT=$((CLIENTS * RUNS * ROUNDS)) GOT
    GOT="$(grep -c '^run ' "$OUT" || true)"
    [ "$GOT" -eq "$WANT" ] || fail "segmented dataset has $GOT runs, want exactly $WANT (lost or duplicated batches)"
    say "PASS: $GOT/$WANT runs survived the multi-segment SIGKILL exactly once"
}

# --- seeded chaos regression replay -----------------------------------

seeds() {
    say "replaying scripts/e2e/regression_seeds.json"
    go test -count=1 -run TestRegressionSeeds ./internal/server ./internal/cluster \
        || fail "seed corpus replay failed"
    say "PASS: seed corpus replayed clean"
}

# --- the USE verdict under a slow modeled disk ------------------------

use_verdict() {
    say "loadgen with -fsync-cost 8ms must blame journal-fsync"
    local out
    out="$("$BIN/uucs-loadgen" -clients 8 -batches 200 -fsync-cost 8ms -state "$WORK/lgstate" -smoke)"
    printf '%s\n' "$out" | grep 'USE health' | sed 's/^/e2e:   /'
    printf '%s\n' "$out" | grep -q 'saturated: journal-fsync' \
        || fail "USE verdict did not name journal-fsync under an 8ms disk"
    say "PASS: USE verdict names the saturated resource"
}

case "$MODE" in
-smoke) smoke ;;
-restart) restart_smoke ;;
-seeds) seeds ;;
all)
    smoke
    restart_smoke
    seeds
    use_verdict
    ;;
*) fail "unknown mode $MODE (want -smoke, -restart, -seeds, or nothing)" ;;
esac

say "done"

#!/bin/sh
# Smoke test for the serving stack: boots optimizerd on an ephemeral
# port, drives it with loadgen over real TCP, then checks graceful
# drain — SIGTERM must finish in-flight work and exit 0.
#
# Second leg: crash-recovery of the persistent fragment store. A server
# booted with --store-path serves a cold pass (per-query frontier
# digests recorded), is SIGKILLed mid-load — i.e. with write-behind
# appends plausibly in flight — and restarted on the same path. The
# restart must report zero decode errors in its replay line (a torn
# final record is fine; anything the CRC rejects beyond that is not)
# and the warm pass must reproduce the cold pass's frontier digests
# bit for bit.
#
# Third leg: overload. Eight sessions against two run slots make the
# server load-shed with a retry-after hint; loadgen must back off and
# resubmit until every query lands (ok = 16, no transport errors, and a
# nonzero shed count proves the retry loop ran), and SIGTERM must still
# drain to exit 0.
#
# Fourth leg: a full disk. A server whose --store-path is /dev/full
# (every write fails with ENOSPC) must serve every query from its hot
# tier, drain to exit 0 on SIGTERM, and report the degraded cold tier
# on its drain store line.
#
# Before the legs: a numeric flag out of range (--threads 0) must exit 2
# with a message, as an unknown flag does, instead of aborting.
#
# Usage: optimizerd_smoke.sh <build-dir> [store-dir]
# store-dir defaults to a fresh mktemp -d; CI's Release leg passes a
# tmpfs path (/dev/shm) to keep the crash leg off spinning disks.
# Registered by CMake as the ctest case `optimizerd_smoke` (only when
# MOQO_BUILD_EXAMPLES is ON, since it runs the example binaries).
set -eu

BUILD_DIR="${1:?usage: optimizerd_smoke.sh <build-dir> [store-dir]}"
STORE_DIR="${2:-}"
if [ -z "$STORE_DIR" ]; then
  STORE_DIR="$(mktemp -d)"
  CLEAN_STORE_DIR=1
else
  mkdir -p "$STORE_DIR"
  CLEAN_STORE_DIR=0
fi
LOG="$(mktemp)"
LOG2="$(mktemp)"
COLD_DIGESTS="$(mktemp)"
WARM_DIGESTS="$(mktemp)"
SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
  rm -f "$LOG" "$LOG2" "$COLD_DIGESTS" "$WARM_DIGESTS"
  rm -f "$STORE_DIR/fragments.log" "$STORE_DIR/fragments.log.compact"
  [ "$CLEAN_STORE_DIR" -eq 1 ] && rmdir "$STORE_DIR" 2>/dev/null || true
}
trap cleanup EXIT

# Polls $1 for the listening line; the server pid is in $SERVER_PID.
wait_for_port() {
  _log="$1"
  PORT=""
  i=0
  while [ $i -lt 100 ]; do
    PORT="$(sed -n 's/^optimizerd: listening on .*:\([0-9][0-9]*\)$/\1/p' "$_log")"
    [ -n "$PORT" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || { cat "$_log"; echo "FAIL: optimizerd died on startup"; exit 1; }
    sleep 0.1
    i=$((i + 1))
  done
  [ -n "$PORT" ] || { cat "$_log"; echo "FAIL: no listening line"; exit 1; }
}

STATUS=0
"$BUILD_DIR/optimizerd" --threads 0 > /dev/null 2>&1 || STATUS=$?
[ "$STATUS" -eq 2 ] || { echo "FAIL: optimizerd --threads 0 exited $STATUS, want 2"; exit 1; }

# --- Leg 1: quotas + graceful drain (no store) ------------------------------

"$BUILD_DIR/optimizerd" --port 0 --threads 2 --shards 2 \
  --max-inflight 16 --quota smoke=8:2 > "$LOG" &
SERVER_PID=$!
wait_for_port "$LOG"

"$BUILD_DIR/loadgen" --port "$PORT" --sessions 4 --queries 2 \
  --tenants 2 --max-iterations 8 --json || {
  echo "FAIL: loadgen reported transport errors"; exit 1;
}

# Graceful drain: SIGTERM, then the process must exit 0 by itself and
# report the drain summary.
kill -TERM "$SERVER_PID"
STATUS=0
wait "$SERVER_PID" || STATUS=$?
SERVER_PID=""
[ "$STATUS" -eq 0 ] || { cat "$LOG"; echo "FAIL: exit status $STATUS"; exit 1; }
grep -q "optimizerd: drained\." "$LOG" || { cat "$LOG"; echo "FAIL: no drain summary"; exit 1; }
echo "PASS: optimizerd smoke (drain leg)"

# --- Leg 2: fragment-store crash recovery -----------------------------------

STORE_PATH="$STORE_DIR/fragments.log"
rm -f "$STORE_PATH"

: > "$LOG"
"$BUILD_DIR/optimizerd" --port 0 --threads 2 --shards 2 \
  --max-inflight 16 --store-path "$STORE_PATH" > "$LOG" &
SERVER_PID=$!
wait_for_port "$LOG"
grep -q "optimizerd: fragment store" "$LOG" || { cat "$LOG"; echo "FAIL: no replay report"; exit 1; }

# Cold pass: record every finished query's frontier digest.
"$BUILD_DIR/loadgen" --port "$PORT" --sessions 4 --queries 3 \
  --tenants 2 --max-iterations 8 --digest | \
  sed -n 's/^loadgen-digest: //p' | sort > "$COLD_DIGESTS" || {
  echo "FAIL: cold loadgen pass"; exit 1;
}
[ -s "$COLD_DIGESTS" ] || { echo "FAIL: cold pass produced no digests"; exit 1; }

# Crash mid-publish: start another load so runs are completing (and the
# write-behind appender is busy), then SIGKILL — no drain, no flush.
"$BUILD_DIR/loadgen" --port "$PORT" --sessions 4 --queries 3 \
  --tenants 2 --max-iterations 8 --seed 7 > /dev/null 2>&1 &
LOADGEN_PID=$!
sleep 0.3
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
wait "$LOADGEN_PID" 2>/dev/null || true  # Transport errors expected.

# Restart on the same log. The replay line must show zero decode
# errors: a SIGKILL may tear the final in-flight append (torn bytes are
# fine), but every record before it must replay CRC-clean.
"$BUILD_DIR/optimizerd" --port 0 --threads 2 --shards 2 \
  --max-inflight 16 --store-path "$STORE_PATH" > "$LOG2" &
SERVER_PID=$!
wait_for_port "$LOG2"
REPLAY_LINE="$(grep "optimizerd: fragment store" "$LOG2" || true)"
[ -n "$REPLAY_LINE" ] || { cat "$LOG2"; echo "FAIL: no replay report after crash"; exit 1; }
echo "$REPLAY_LINE"
echo "$REPLAY_LINE" | grep -q "decode errors 0" || {
  cat "$LOG2"; echo "FAIL: replay reported decode errors"; exit 1;
}
echo "$REPLAY_LINE" | grep -q "DEGRADED" && {
  cat "$LOG2"; echo "FAIL: cold tier degraded after crash"; exit 1;
}

# Warm pass: the same workload as the cold pass must produce the same
# frontier digests bit for bit, seeded from the replayed log.
"$BUILD_DIR/loadgen" --port "$PORT" --sessions 4 --queries 3 \
  --tenants 2 --max-iterations 8 --digest | \
  sed -n 's/^loadgen-digest: //p' | sort > "$WARM_DIGESTS" || {
  echo "FAIL: warm loadgen pass"; exit 1;
}
diff "$COLD_DIGESTS" "$WARM_DIGESTS" || {
  echo "FAIL: warm frontier digests differ from cold run"; exit 1;
}

# Clean shutdown of the recovered server: drain must still work and the
# store summary line must appear.
kill -TERM "$SERVER_PID"
STATUS=0
wait "$SERVER_PID" || STATUS=$?
SERVER_PID=""
[ "$STATUS" -eq 0 ] || { cat "$LOG2"; echo "FAIL: exit status $STATUS after recovery"; exit 1; }
grep -q "optimizerd: store publishes" "$LOG2" || { cat "$LOG2"; echo "FAIL: no store summary"; exit 1; }
echo "PASS: optimizerd smoke (crash-recovery leg)"

# --- Leg 3: load shedding and retry-after under overload --------------------

: > "$LOG"
"$BUILD_DIR/optimizerd" --port 0 --threads 2 --shards 2 \
  --max-inflight 2 --fragment-cache-mb 0 > "$LOG" &
SERVER_PID=$!
wait_for_port "$LOG"

SUMMARY="$("$BUILD_DIR/loadgen" --port "$PORT" --sessions 8 --queries 2 \
  --max-iterations 6 --retries 1000000 --json)" || {
  echo "$SUMMARY"; echo "FAIL: overload loadgen reported transport errors"; exit 1;
}
echo "$SUMMARY"
# Prints the integer value of "$1" in loadgen's one-line JSON summary.
json_field() {
  echo "$SUMMARY" | sed -n "s/.*\"$1\":\([0-9][0-9]*\).*/\1/p"
}
[ "$(json_field ok)" = 16 ] || { echo "FAIL: expected ok 16"; exit 1; }
[ "$(json_field transport_errors)" = 0 ] || {
  echo "FAIL: expected transport_errors 0"; exit 1;
}
[ "$(json_field shed)" -gt 0 ] || {
  echo "FAIL: two run slots and eight sessions shed nothing"; exit 1;
}

kill -TERM "$SERVER_PID"
STATUS=0
wait "$SERVER_PID" || STATUS=$?
SERVER_PID=""
[ "$STATUS" -eq 0 ] || { cat "$LOG"; echo "FAIL: exit status $STATUS after overload"; exit 1; }
grep -q "optimizerd: drained\." "$LOG" || { cat "$LOG"; echo "FAIL: no drain summary after overload"; exit 1; }
echo "PASS: optimizerd smoke (overload leg)"

# --- Leg 4: a full disk degrades the cold tier, not the service -------------

if [ -w /dev/full ]; then
  : > "$LOG"
  "$BUILD_DIR/optimizerd" --port 0 --threads 2 --shards 2 \
    --max-inflight 16 --store-path /dev/full > "$LOG" &
  SERVER_PID=$!
  wait_for_port "$LOG"

  SUMMARY="$("$BUILD_DIR/loadgen" --port "$PORT" --sessions 4 --queries 3 \
    --max-iterations 8 --json)" || {
    echo "$SUMMARY"; echo "FAIL: full-disk loadgen reported transport errors"; exit 1;
  }
  echo "$SUMMARY"
  [ "$(json_field ok)" = 12 ] || { echo "FAIL: expected ok 12 on a full disk"; exit 1; }
  [ "$(json_field transport_errors)" = 0 ] || {
    echo "FAIL: expected transport_errors 0 on a full disk"; exit 1;
  }

  kill -TERM "$SERVER_PID"
  STATUS=0
  wait "$SERVER_PID" || STATUS=$?
  SERVER_PID=""
  [ "$STATUS" -eq 0 ] || { cat "$LOG"; echo "FAIL: exit status $STATUS on a full disk"; exit 1; }
  STORE_LINE="$(grep "optimizerd: store publishes" "$LOG" || true)"
  echo "$STORE_LINE"
  echo "$STORE_LINE" | grep "DEGRADED" | grep -q "No space left on device" || {
    cat "$LOG"; echo "FAIL: drain store line does not report the full disk"; exit 1;
  }
  echo "PASS: optimizerd smoke (full-disk leg)"
else
  echo "SKIP: optimizerd smoke (full-disk leg): no writable /dev/full"
fi
echo "PASS: optimizerd smoke"

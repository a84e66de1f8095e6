#!/usr/bin/env bash
# Loopback end-to-end smoke test of the network front end.
#
# Exercises the full service stack the way a user would: start a
# pverify_serve daemon on an ephemeral port, run a pverify_cli batch
# against it over TCP (the CLI checks every remote answer against its own
# sequential baseline, so a pass means the served answers are correct, not
# just that bytes moved), then SIGTERM the daemon and require a clean exit.
# The same batch runs again with a per-request deadline, so every reply
# takes the deadline-carrying path (timed by the connection's writer
# thread) and must still match. A second leg does the same against a sharded (range, the only layout),
# cached daemon and requires the replayed batch to be served from its
# cache. A negative size flag and any sharding policy but range must be
# rejected with the usage exit code before the daemon listens, and the
# CLI must reject counts that are not digits-only integers the same way.
# Last, a daemon serving the same intervals in reverse line order (same
# answer counts, every id different) must fail the CLI's per-request check.
#
# Usage: ci/serve_smoke.sh <build-dir>
set -eu

build="${1:?usage: ci/serve_smoke.sh <build-dir>}"
build="$(cd "$build" && pwd)"
work="$(mktemp -d)"
server_pid=

cleanup() {
  if [ -n "$server_pid" ] && kill -0 "$server_pid" 2>/dev/null; then
    kill -KILL "$server_pid" 2>/dev/null || true
  fi
  rm -rf "$work"
}
trap cleanup EXIT

# --- dataset: 400 uniform intervals in the CLI's query domain --------------
awk 'BEGIN {
  srand(7)
  for (i = 0; i < 400; ++i) {
    lo = rand() * 9990
    printf "%.6f %.6f\n", lo, lo + 0.2 + rand() * 2.0
  }
}' > "$work/data.txt"

# --- bad flags are usage errors, rejected before the daemon listens -------
# (the timeout turns a daemon that accepts the flag and serves into a
# failure instead of a hang)
for flag in --threads=-1 --policy=hash; do
  status=0
  timeout 10 "$build/pverify_serve" --dataset="$work/data.txt" "$flag" \
    --port=0 --port-file="$work/port" > "$work/server.log" 2>&1 || status=$?
  if [ "$status" -ne 2 ] || [ -s "$work/port" ]; then
    echo "FAILED: $flag exited $status (want 2, before listening)"
    cat "$work/server.log"
    exit 1
  fi
  echo "OK: pverify_serve $flag rejected with exit 2"
done

# --- CLI counts are digits only: NaN and fractions are usage errors --------
for args in "40 2 --shards=nan" "nan" "40 2 --cache=0.5"; do
  status=0
  # shellcheck disable=SC2086  # split the argument list on purpose
  timeout 60 "$build/pverify_cli" batch "$work/data.txt" $args \
    > "$work/cli.log" 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "FAILED: pverify_cli batch <data> $args exited $status (want 2)"
    cat "$work/cli.log"
    exit 1
  fi
  echo "OK: pverify_cli batch <data> $args rejected with exit 2"
done

# Starts a daemon on an ephemeral port with the extra flags given and sets
# $server_pid and $port. It serves $serve_data (default: the CLI's dataset).
serve_data="$work/data.txt"
start_server() {
  rm -f "$work/port"
  "$build/pverify_serve" --dataset="$serve_data" --threads=2 \
    --port=0 --port-file="$work/port" "$@" > "$work/server.log" 2>&1 &
  server_pid=$!

  for _ in $(seq 1 100); do
    [ -s "$work/port" ] && break
    if ! kill -0 "$server_pid" 2>/dev/null; then
      echo "FAILED: server exited during startup"
      cat "$work/server.log"
      exit 1
    fi
    sleep 0.1
  done
  port="$(cat "$work/port" 2>/dev/null || true)"
  if [ -z "$port" ]; then
    echo "FAILED: server never wrote its port file"
    cat "$work/server.log"
    exit 1
  fi
  echo "OK: pverify_serve listening on port $port${*:+ ($*)}"
}

# SIGTERMs the daemon and requires a clean exit.
stop_server() {
  kill -TERM "$server_pid"
  status=0
  wait "$server_pid" || status=$?
  server_pid=
  if [ "$status" -ne 0 ]; then
    echo "FAILED: server exit status $status after SIGTERM"
    cat "$work/server.log"
    exit 1
  fi
  echo "OK: daemon shut down cleanly on SIGTERM"
  grep "served" "$work/server.log" || true
}

# --- CLI batch over the wire (self-checking against local baseline) --------
# --retries exercises the RetryingClient path even on a healthy server.
start_server
"$build/pverify_cli" batch "$work/data.txt" 40 2 \
  --connect="127.0.0.1:$port" --retries=3
echo "OK: remote batch matches the CLI's sequential baseline"
"$build/pverify_cli" batch "$work/data.txt" 40 2 \
  --connect="127.0.0.1:$port" --deadline-ms=10000
echo "OK: remote batch with per-request deadlines matches the baseline"
stop_server

# --- the same batch twice against a range-sharded, cached daemon -----------
start_server --shards=2 --cache=64
"$build/pverify_cli" batch "$work/data.txt" 40 2 \
  --connect="127.0.0.1:$port" --retries=3
"$build/pverify_cli" batch "$work/data.txt" 40 2 \
  --connect="127.0.0.1:$port" --retries=3 | tee "$work/replay.log"
if ! grep -q "served from the server cache" "$work/replay.log"; then
  echo "FAILED: the replayed batch never hit the server cache"
  exit 1
fi
echo "OK: sharded + cached daemon answers exactly and serves the replay"
stop_server

# --- a daemon serving other ids must fail the per-request answer check ----
tac "$work/data.txt" > "$work/reversed.txt"
serve_data="$work/reversed.txt"
start_server
status=0
"$build/pverify_cli" batch "$work/data.txt" 40 2 \
  --connect="127.0.0.1:$port" > "$work/cli.log" 2>&1 || status=$?
if [ "$status" -ne 1 ] || ! grep -q "answer mismatch at request" \
    "$work/cli.log"; then
  echo "FAILED: batch against a line-permuted daemon exited $status (want 1)"
  cat "$work/cli.log"
  exit 1
fi
echo "OK: a daemon answering with other ids fails the batch check"
stop_server
echo "PASSED: loopback service smoke"

#!/usr/bin/env bash
# Loopback end-to-end smoke test of the network front end.
#
# Exercises the full service stack the way a user would: start a
# pverify_serve daemon on an ephemeral port, run a pverify_cli batch
# against it over TCP (the CLI checks every remote answer against its own
# sequential baseline, so a pass means the served answers are correct, not
# just that bytes moved), then SIGTERM the daemon and require a clean exit.
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

# --- start the daemon on an ephemeral port ---------------------------------
"$build/pverify_serve" --dataset="$work/data.txt" --threads=2 \
  --port=0 --port-file="$work/port" > "$work/server.log" 2>&1 &
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
port="$(cat "$work/port")"
if [ -z "$port" ]; then
  echo "FAILED: server never wrote its port file"
  cat "$work/server.log"
  exit 1
fi
echo "OK: pverify_serve listening on port $port"

# --- CLI batch over the wire (self-checking against local baseline) --------
# --retries exercises the RetryingClient path even on a healthy server.
"$build/pverify_cli" batch "$work/data.txt" 40 2 \
  --connect="127.0.0.1:$port" --retries=3
echo "OK: remote batch matches the CLI's sequential baseline"

# --- clean shutdown on SIGTERM ---------------------------------------------
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
echo "PASSED: loopback service smoke"

#!/usr/bin/env bash
# rushd smoke session (CI: the daemon-smoke job).
#
# 1. Record a deterministic reference: the in-process engine simulation on
#    examples/jobs.xml, dumping its event log and trace CSV.
# 2. Start rushd on a Unix socket in --client-time mode with a WAL.
# 3. Play the reference log into the daemon over the socket.
# 4. Replay the daemon's own WAL offline through the engine.
# 5. The replayed trace must be byte-identical to the reference trace, and
#    the daemon's WAL byte-identical to the reference event log — the
#    engine determinism guarantee of DESIGN.md §5j.  Any diff fails.
# 6. Replay two `simulate` event logs, one with --speculation and one with
#    --scheduler FIFO, through rushd_client --replay-wal with the same
#    settings; each replayed trace must be byte-identical to simulate's.
#
# Usage: scripts/daemon_smoke.sh [BUILD_DIR]   (default: build)

set -euo pipefail

BUILD_DIR="${1:-build}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
RUSHD="$REPO_ROOT/$BUILD_DIR/src/rushd"
CLIENT="$REPO_ROOT/$BUILD_DIR/examples/rushd_client"
SIMULATE="$REPO_ROOT/$BUILD_DIR/examples/simulate"
JOBS="$REPO_ROOT/examples/jobs.xml"
WORK="$(mktemp -d)"
SOCKET="$WORK/rushd.sock"
CAPACITY=6

cleanup() {
  [[ -n "${RUSHD_PID:-}" ]] && kill "$RUSHD_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

[[ -x "$RUSHD" && -x "$CLIENT" && -x "$SIMULATE" ]] || {
  echo "daemon_smoke: build rushd, rushd_client and simulate first ($BUILD_DIR)" >&2
  exit 1
}

echo "== record reference =="
"$CLIENT" --record-reference "$WORK/ref.evlog" --trace "$WORK/ref.csv" \
          --jobs "$JOBS" --capacity "$CAPACITY"

echo "== start rushd =="
"$RUSHD" --socket "$SOCKET" --capacity "$CAPACITY" --client-time \
         --log "$WORK/wal.evlog" --once &
RUSHD_PID=$!
for _ in $(seq 1 50); do
  [[ -S "$SOCKET" ]] && break
  sleep 0.1
done
[[ -S "$SOCKET" ]] || { echo "daemon_smoke: rushd did not come up" >&2; exit 1; }

echo "== play session =="
"$CLIENT" --play "$WORK/ref.evlog" --socket "$SOCKET"

wait "$RUSHD_PID"
RUSHD_PID=""

echo "== replay daemon WAL =="
"$CLIENT" --replay-wal "$WORK/wal.evlog" --trace "$WORK/replayed.csv" \
          --capacity "$CAPACITY"

echo "== verify =="
cmp "$WORK/ref.evlog" "$WORK/wal.evlog" || {
  echo "daemon_smoke: FAIL — daemon WAL differs from reference event log" >&2
  exit 1
}
diff "$WORK/ref.csv" "$WORK/replayed.csv" > /dev/null || {
  echo "daemon_smoke: FAIL — replayed trace differs from simulator reference" >&2
  exit 1
}
echo "daemon_smoke: OK — WAL and replayed trace byte-identical to reference"

# simulate runs on the paper testbed (48 containers); the replay must use
# the scheduler and speculation setting the log was written with.
for settings in "--speculation" "--scheduler FIFO"; do
  echo "== replay simulate $settings =="
  # shellcheck disable=SC2086  # $settings is one or two flags
  "$SIMULATE" --jobs 12 $settings --event-log "$WORK/sim.evlog" \
              --trace "$WORK/sim.csv" > /dev/null
  # shellcheck disable=SC2086
  "$CLIENT" --replay-wal "$WORK/sim.evlog" --trace "$WORK/sim-replayed.csv" \
            --capacity 48 $settings
  diff "$WORK/sim.csv" "$WORK/sim-replayed.csv" > /dev/null || {
    echo "daemon_smoke: FAIL — replayed trace differs from simulate $settings" >&2
    exit 1
  }
done
echo "daemon_smoke: OK — simulate logs replay byte-identically"

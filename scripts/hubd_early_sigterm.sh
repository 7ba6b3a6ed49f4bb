#!/usr/bin/env bash
# Start-up signal smoke for tinyevm-hubd: start the daemon on an ephemeral
# port, send SIGTERM the moment its port file appears, and require a
# graceful exit (status 0 and the "drained:" summary). A daemon that
# installs its signal handlers after publishing the port dies of the
# signal instead. Usage: hubd_early_sigterm.sh <hubd> [runs]
set -euo pipefail

HUBD=$1
RUNS=${2:-1}

dir=$(mktemp -d)
pid=
cleanup() {
  [ -n "$pid" ] && kill -KILL "$pid" 2>/dev/null || true
  rm -rf "$dir"
}
trap cleanup EXIT

for run in $(seq "$RUNS"); do
  rm -f "$dir/port"
  "$HUBD" --port 0 --port-file "$dir/port" --workers 1 > "$dir/hubd.log" &
  pid=$!
  # Tight poll on existence: the signal lands within microseconds of the
  # file appearing, and a port file that is not written atomically shows
  # up (empty) before the daemon is ready.
  SECONDS=0
  while ! [ -e "$dir/port" ]; do
    [ "$SECONDS" -lt 10 ] || { echo "run $run: no port file" >&2; exit 1; }
  done
  kill -TERM "$pid"
  rc=0
  wait "$pid" || rc=$?
  pid=
  if [ "$rc" -ne 0 ]; then
    echo "run $run: hubd exited with status $rc after an early SIGTERM" >&2
    exit 1
  fi
  grep -q "drained:" "$dir/hubd.log" \
    || { echo "run $run: no drained: line" >&2; exit 1; }
done
echo "early SIGTERM ok ($RUNS runs)"

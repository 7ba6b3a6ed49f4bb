#!/usr/bin/env bash
# Flag-check smoke for tinyevm-hubd: every bad numeric option, and an
# unknown engine name, must exit 2 with a message before the daemon binds
# (no port file appears). A value that slips through would hang the daemon
# or abort it instead.
# Usage: hubd_bad_flags.sh <hubd>
set -uo pipefail

HUBD=$1

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

fail=0
check() {
  rm -f "$dir/port"
  timeout 10 "$HUBD" --port-file "$dir/port" "$@" \
    > "$dir/out.log" 2> "$dir/err.log"
  local rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "hubd $*: exit $rc, want 2" >&2
    fail=1
  elif [ -e "$dir/port" ]; then
    echo "hubd $*: bound before rejecting the flag" >&2
    fail=1
  elif ! [ -s "$dir/err.log" ]; then
    echo "hubd $*: no message on stderr" >&2
    fail=1
  fi
}

check --port abc
check --port -1
check --port 65536
check --port 0 --workers -1
check --port 0 --workers 2x
check --port 0 --batch-max 0
check --port 0 --batch-max -3
check --port 0 --inflight ''
check --port 0 --drain-ms -5
check --port 0 --sensor 7=abc
check --port 0 --sensor -7=21
check --port 0 --engine bogus

[ "$fail" -eq 0 ] || exit 1
echo "bad flags ok"

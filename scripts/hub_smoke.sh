#!/usr/bin/env bash
# End-to-end smoke for the networked hub: start tinyevm-hubd on an
# ephemeral port, exchange 100 payment rounds over localhost with
# tinyevm-hubload, scrape the live server through the StatsRequest frame
# kind via tinyevm-stats --connect, then SIGINT the daemon and require the
# graceful-drain summary. Usage: hub_smoke.sh <hubd> <hubload> <stats>
set -euo pipefail

HUBD=$1
HUBLOAD=$2
STATS=$3

dir=$(mktemp -d)
pid=
cleanup() {
  [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  rm -rf "$dir"
}
trap cleanup EXIT

"$HUBD" --port 0 --port-file "$dir/port" --workers 2 > "$dir/hubd.log" &
pid=$!

for _ in $(seq 100); do
  [ -s "$dir/port" ] && break
  sleep 0.1
done
[ -s "$dir/port" ] || { echo "hubd never wrote its port file" >&2; exit 1; }
port=$(cat "$dir/port")

# 4 connections x 25 rounds = the documented 100-round exchange.
"$HUBLOAD" --port "$port" --connections 4 --rounds 25

# Remote scrape on the same port must expose the net-layer metrics.
"$STATS" --connect "127.0.0.1:$port" | tee "$dir/scrape.txt" \
  | grep -q "tinyevm_net_accepted_total"
grep -q "tinyevm_hub_payments_total" "$dir/scrape.txt"
grep -q "tinyevm_hub_served_inline_total" "$dir/scrape.txt"

# Graceful shutdown: SIGINT, clean exit, drain summary printed.
kill -INT "$pid"
wait "$pid"
pid=
grep -q "drained:" "$dir/hubd.log"
echo "hub smoke ok (port $port)"

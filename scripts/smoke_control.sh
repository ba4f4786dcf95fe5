#!/usr/bin/env bash
# Control-plane smoke test: build hrmcd, start it with an HTTP control
# listener on a unix socket, drive a complete multicast transfer over
# loopback purely through the API (admit receiver + sender, poll to
# completion, scrape metrics), drain a second in-flight flow, shut the
# daemon down gracefully, and verify the received bytes.
#
# Needs only bash, curl, and the go toolchain. Exits non-zero on any
# failure.
set -euo pipefail

cd "$(dirname "$0")/.."
TMP=$(mktemp -d)
SOCK="$TMP/hrmcd.sock"
CURL=(curl -sS --fail-with-body --unix-socket "$SOCK")
API=http://hrmcd

cleanup() {
    [[ -n "${HRMCD_PID:-}" ]] && kill "$HRMCD_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

fail() { echo "smoke_control: FAIL: $*" >&2; exit 1; }

echo "== build hrmcd"
go build -o "$TMP/hrmcd" ./cmd/hrmcd

cat >"$TMP/config.json" <<EOF
{
  "stats_every_sec": 0,
  "loopback": true,
  "listen": "unix:$SOCK",
  "groups": []
}
EOF

echo "== start daemon"
"$TMP/hrmcd" -config "$TMP/config.json" >"$TMP/hrmcd.log" 2>&1 &
HRMCD_PID=$!

for _ in $(seq 50); do
    [[ -S "$SOCK" ]] && break
    kill -0 "$HRMCD_PID" || { cat "$TMP/hrmcd.log" >&2; fail "daemon died on startup"; }
    sleep 0.1
done
[[ -S "$SOCK" ]] || fail "control socket never appeared"
"${CURL[@]}" "$API/v1/status" >/dev/null

# Pulls "field":<value> out of single-object JSON output (no jq in the
# loop: keep the dependency surface to curl).
jsonfield() { grep -o "\"$1\": *\"\\?[^,\"}]*" | head -n1 | sed 's/.*: *"\?//'; }

echo "== admit receiver + sender (256 KiB over 239.66.77.88:15999)"
SIZE=262144
RECV_ID=$("${CURL[@]}" -X POST "$API/v1/flows" -d '{
  "name": "smoke-recv", "group": "239.66.77.88:15999", "role": "recv",
  "file": "'"$TMP"'/out.bin", "local_port": 2, "peer_port": 1
}' | jsonfield id)
SEND_ID=$("${CURL[@]}" -X POST "$API/v1/flows" -d '{
  "name": "smoke-send", "group": "239.66.77.88:15999", "role": "send",
  "size": '"$SIZE"', "receivers": 1, "local_port": 1, "peer_port": 2
}' | jsonfield id)
echo "   receiver id=$RECV_ID sender id=$SEND_ID"

echo "== wait for completion"
for i in $(seq 100); do
    state=$("${CURL[@]}" "$API/v1/flows/$RECV_ID" | jsonfield state)
    [[ "$state" == done ]] && break
    [[ "$state" == failed ]] && { cat "$TMP/hrmcd.log" >&2; fail "receiver failed"; }
    [[ $i == 100 ]] && fail "transfer did not complete (state=$state)"
    sleep 0.1
done

echo "== scrape metrics"
"${CURL[@]}" "$API/metrics" >"$TMP/metrics.txt"
for metric in hrmc_session_budget_bytes_per_second \
              hrmc_total_sender_bytes_sent \
              hrmc_sender_rate_bps \
              hrmc_receiver_bytes_delivered \
              hrmc_flow_done; do
    grep -q "^$metric" "$TMP/metrics.txt" || fail "metrics missing $metric"
done
grep "^hrmc_total_receiver_bytes_delivered $SIZE\$" "$TMP/metrics.txt" >/dev/null \
    || fail "metrics do not show $SIZE bytes delivered"

echo "== drain an in-flight flow"
# A slow, rate-capped sender stays mid-transfer long enough to be
# drained from the API; its receiver then reaches end of stream alone.
VICTIM_RECV=$("${CURL[@]}" -X POST "$API/v1/flows" -d '{
  "name": "victim-recv", "group": "239.66.77.89:16999", "role": "recv",
  "local_port": 4, "peer_port": 3
}' | jsonfield id)
VICTIM_SEND=$("${CURL[@]}" -X POST "$API/v1/flows" -d '{
  "name": "victim-send", "group": "239.66.77.89:16999", "role": "send",
  "size": 67108864, "receivers": 1, "local_port": 3, "peer_port": 4,
  "buf": 16384, "min_rate_bps": 100000, "max_rate_bps": 200000
}' | jsonfield id)
sleep 1
state=$("${CURL[@]}" -X DELETE "$API/v1/flows/$VICTIM_SEND?mode=drain" | jsonfield state)
[[ "$state" == closed ]] || fail "drained sender state=$state, want closed"
for i in $(seq 100); do
    state=$("${CURL[@]}" "$API/v1/flows/$VICTIM_RECV" | jsonfield state)
    [[ "$state" == done || "$state" == closed ]] && break
    [[ $i == 100 ]] && fail "victim receiver never finished after drain (state=$state)"
    sleep 0.1
done
"${CURL[@]}" -X DELETE "$API/v1/flows/$VICTIM_RECV?mode=forget" >/dev/null

echo "== graceful shutdown"
"${CURL[@]}" -X POST "$API/v1/shutdown" >/dev/null
for i in $(seq 100); do
    kill -0 "$HRMCD_PID" 2>/dev/null || break
    [[ $i == 100 ]] && { cat "$TMP/hrmcd.log" >&2; fail "daemon did not exit"; }
    sleep 0.1
done
wait "$HRMCD_PID" || { cat "$TMP/hrmcd.log" >&2; fail "daemon exited non-zero"; }
HRMCD_PID=""

echo "== verify received bytes"
[[ $(stat -c %s "$TMP/out.bin") == "$SIZE" ]] \
    || fail "out.bin is $(stat -c %s "$TMP/out.bin") bytes, want $SIZE"

echo "smoke_control: PASS"

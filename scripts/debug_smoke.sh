#!/usr/bin/env sh
# debug_smoke.sh — boots `cake-bench smoke` (debug server + engine + mixed
# workload + conformance report) and probes the observability surface from
# outside the process: every endpoint must answer 200 with valid JSON, and
# /metrics and /debug/vars must carry every family and expvar map listed
# below.
# Exits non-zero on the first failing probe. Respects CAKE_DEBUG_ADDR.
set -eu
cd "$(dirname "$0")/.."

OUT=$(mktemp)
BIN=$(mktemp)
# Build first and run the binary itself: killing a `go run` parent leaves
# the smoke server it started running.
go build -o "$BIN" ./cmd/cake-bench
"$BIN" smoke >"$OUT" 2>&1 &
SMOKE_PID=$!
trap 'kill "$SMOKE_PID" 2>/dev/null; wait "$SMOKE_PID" 2>/dev/null || true; rm -f "$OUT" "$BIN"' EXIT

# Wait for the readiness line (printed only after the workload and the
# conformance report, so every endpoint has content).
ADDR=
for _ in $(seq 1 120); do
	if ! kill -0 "$SMOKE_PID" 2>/dev/null; then
		echo "debug_smoke: smoke process died:" >&2
		cat "$OUT" >&2
		exit 1
	fi
	ADDR=$(sed -n 's/^SMOKE_ADDR=//p' "$OUT" | head -n 1)
	[ -n "$ADDR" ] && break
	sleep 1
done
if [ -z "$ADDR" ]; then
	echo "debug_smoke: no SMOKE_ADDR readiness line after 120s:" >&2
	cat "$OUT" >&2
	exit 1
fi
echo "debug_smoke: probing http://$ADDR"

# probe PATH [json] — 200 or fail; with json, the body must parse.
probe() {
	path=$1
	kind=${2:-raw}
	body=$(mktemp)
	code=$(curl -sS -o "$body" -w '%{http_code}' "http://$ADDR$path")
	if [ "$code" != "200" ]; then
		echo "debug_smoke: GET $path -> $code" >&2
		cat "$body" >&2
		rm -f "$body"
		exit 1
	fi
	if [ "$kind" = json ] && ! python3 -c 'import json,sys; json.load(sys.stdin)' <"$body"; then
		echo "debug_smoke: GET $path -> invalid JSON" >&2
		cat "$body" >&2
		rm -f "$body"
		exit 1
	fi
	rm -f "$body"
	echo "debug_smoke: GET $path ok"
}

probe /metrics
probe /debug/requests.json json
probe /debug/slo.json json
probe /debug/snapshots.json json
probe /debug/conformance.json json
probe /debug/vars json
probe /debug/trace.json json
probe /debug/timeline.json json
probe /debug/corpus.json json

# The whole export surface must be present, not just the pages served:
# every metric family, by its TYPE line and at least one sample, and every
# cake_* expvar map.
FAMILIES="
cake_gemms_total cake_blocks_total cake_packed_bytes_total cake_reused_bytes_total
cake_pack_seconds_total cake_compute_seconds_total cake_overlap_seconds_total
cake_phase_duration_seconds
cake_engine_in_flight cake_engine_queue_depth cake_engine_queued_total
cake_engine_rejected_total cake_engine_tier_hits_total cake_engine_leases_total
cake_resident_operands cake_resident_pinned cake_resident_bytes cake_resident_budget_bytes
cake_resident_hits_total cake_resident_misses_total cake_resident_evictions_total
cake_resident_avoided_pack_bytes_total
cake_corpus_epoch_seq cake_corpus_cell_gflops cake_corpus_cell_trend
cake_requests_total cake_request_tier_p99_seconds cake_flight_recorder_dropped_total
cake_snapshot_trips_total cake_slo_burn_rate cake_slo_budget_remaining
"
EXPVARS="cake_metrics cake_engine cake_resident cake_corpus cake_slo"

METRICS=$(curl -sS "http://$ADDR/metrics")
for f in $FAMILIES; do
	if ! printf '%s\n' "$METRICS" | grep -q "^# TYPE $f "; then
		echo "debug_smoke: /metrics is missing family $f" >&2
		exit 1
	fi
	if ! printf '%s\n' "$METRICS" | grep -Eq "^$f(_bucket|_sum|_count)?[{ ]"; then
		echo "debug_smoke: /metrics family $f has no samples" >&2
		exit 1
	fi
done
echo "debug_smoke: /metrics exports all $(echo $FAMILIES | wc -w) families with samples"

curl -sS "http://$ADDR/debug/vars" | python3 -c '
import json, sys
names = sys.argv[1].split()
vars = json.load(sys.stdin)
missing = [n for n in names if n not in vars]
if missing:
    sys.exit("debug_smoke: /debug/vars is missing " + " ".join(missing))
' "$EXPVARS"
echo "debug_smoke: /debug/vars holds $EXPVARS"

# A record fetched from the ring must round-trip through ?reqid= lookup.
REQID=$(curl -sS "http://$ADDR/debug/requests.json" | python3 -c '
import json, sys
page = json.load(sys.stdin)
for e in page["engines"]:
    recs = e.get("records") or []
    if recs:
        print(e["engine"], recs[0]["id"])
        break
')
if [ -z "$REQID" ]; then
	echo "debug_smoke: /debug/requests.json has no records" >&2
	exit 1
fi
ENGINE=${REQID% *}
ID=${REQID#* }
probe "/debug/requests.json?engine=$ENGINE&reqid=$ID" json
echo "debug_smoke: reqid lookup ok (engine=$ENGINE id=$ID)"

echo "debug_smoke: all probes passed"

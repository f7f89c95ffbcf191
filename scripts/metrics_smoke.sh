#!/bin/sh
# metrics-smoke: boot cmd/marauder against the sim world, scrape /metrics
# on the -metrics-addr port, and assert the key Prometheus series are
# there — the engine Γ-cache counters, the snapshot latency histogram and
# the per-algorithm localization-error histogram. This is the CI gate for
# "the telemetry endpoint actually serves the pipeline's metrics", not
# just "the package unit-tests pass".
set -eu

ADDR="${SMOKE_ADDR:-127.0.0.1:18642}"
MADDR="${SMOKE_METRICS_ADDR:-127.0.0.1:19642}"
BIN="$(mktemp -d)/marauder"
OUT="$(mktemp)"

cleanup() {
    [ -n "${PID:-}" ] && kill "$PID" 2>/dev/null || true
    rm -f "$OUT"
    rm -rf "$(dirname "$BIN")"
}
trap cleanup EXIT INT TERM

go build -o "$BIN" ./cmd/marauder

"$BIN" -addr "$ADDR" -metrics-addr "$MADDR" -pprof -aps 150 -speedup 100 &
PID=$!

fetch() {
    if command -v curl >/dev/null 2>&1; then
        curl -fsS "http://$MADDR/metrics"
    else
        wget -qO- "http://$MADDR/metrics"
    fi
}

# The error histogram appears once the first frame with ground truth is
# published (first serve tick, ~0.5 s in); poll up to 30 s.
tries=0
while :; do
    tries=$((tries + 1))
    if fetch >"$OUT" 2>/dev/null \
        && grep -q '^marauder_engine_cache_hits_total' "$OUT" \
        && grep -q '^marauder_engine_cache_misses_total' "$OUT" \
        && grep -q '^marauder_engine_snapshot_seconds_bucket' "$OUT" \
        && grep -q '^marauder_localization_error_meters_bucket{algo=' "$OUT"; then
        break
    fi
    if [ "$tries" -ge 60 ]; then
        echo "metrics-smoke: required series never appeared; last scrape:" >&2
        cat "$OUT" >&2
        exit 1
    fi
    if ! kill -0 "$PID" 2>/dev/null; then
        echo "metrics-smoke: marauder exited early" >&2
        exit 1
    fi
    sleep 0.5
done

# Spot-check the other layers' series and the pprof mount while the
# process is still up.
for series in \
    marauder_engine_frames_ingested_total \
    marauder_engine_workers \
    marauder_obs_records_total \
    'marauder_stage_seconds_bucket{stage="window_assembly"' \
    marauder_sniffer_frames_captured_total \
    marauder_map_frames_published_total \
    marauder_http_requests_total; do
    grep -q "^$series" "$OUT" || { echo "metrics-smoke: missing $series" >&2; exit 1; }
done

if command -v curl >/dev/null 2>&1; then
    curl -fsS "http://$MADDR/debug/vars" >/dev/null
    curl -fsS -o /dev/null "http://$MADDR/debug/pprof/cmdline"
fi

echo "metrics-smoke: ok ($(grep -c '^marauder_' "$OUT") marauder series live)"

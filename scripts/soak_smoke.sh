#!/bin/sh
# soak-smoke: the CI gate for the sustained-load rig and the flight
# recorder. Runs two mini-soaks (chaos off, then chaos on) against the
# live in-process engine, lets cmd/soak merge both into one versioned
# BENCH_<pr>.json, then decodes every flight record with ftdcdump -check
# — non-empty, strictly monotonic timestamps — asserts both runs
# actually ingested traffic, and runs `go tool pprof -top` over each
# run's self-profile CPU artifact (the summary's cpuPath), which must list
# at least one function (scripts/pprof_top_check.sh). Whole script stays
# under ~30s.
#
# A third mini-soak streams through two loopback capwire agents under
# the aggressive wire fault plan; its fleet accounting (throughput,
# resumes, dedup, exactly-once bookkeeping) merges into the summary as
# the top-level "agents" section via -merge-extra.
#
# Env overrides: PR (default: the highest-numbered BENCH_<n>.json's n,
# from scripts/bench_ids.sh), OUT (summary file, default BENCH_<PR>.json),
# SOAK_SECS (wall seconds per run, default 4), KEEP (when set, the
# flight records and self-profile artifacts land under this directory
# and survive the run — CI uploads them).
set -eu

PR="${PR:-$(sh "$(dirname "$0")/bench_ids.sh" cur)}"
OUT="${OUT:-BENCH_$PR.json}"
SOAK_SECS="${SOAK_SECS:-4}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT INT TERM
WORK="${KEEP:-$TMP}"
mkdir -p "$WORK"

go build -o "$TMP/soak" ./cmd/soak
go build -o "$TMP/ftdcdump" ./cmd/ftdcdump

# Office traffic is diurnal with sessions starting 08:00-12:00, so a
# short smoke must start its simulated clock late in that window
# (-sim-start 11h) or it replays a silent campus.
run_soak() {
    "$TMP/soak" -duration "${SOAK_SECS}s" -devices 120 -aps 200 \
        -speedup 900 -sim-start 11h -tick 50ms -frame-every 250ms \
        -ftdc-interval 250ms -out "$OUT" -pr "$PR" "$@"
}

run_soak -ftdc-dir "$WORK/ftdc-off" -prof-dir "$WORK/prof-off" -run-name chaos_off
run_soak -ftdc-dir "$WORK/ftdc-on" -prof-dir "$WORK/prof-on" -run-name chaos_on -chaos

# Distributed capture: the same load through two loopback capwire agents
# with wire chaos on, recorded standalone and merged as the "agents"
# section (not a third run — benchcompare gates it separately).
"$TMP/soak" -duration "${SOAK_SECS}s" -devices 120 -aps 200 \
    -speedup 900 -sim-start 11h -tick 50ms -frame-every 250ms \
    -ftdc-dir "$WORK/ftdc-agents" -ftdc-interval 250ms -prof=false \
    -agents 2 -agents-wire-chaos -agents-out "$WORK/agents.json"
"$TMP/soak" -duration 0 -out "$OUT" -pr "$PR" -merge-extra "agents=$WORK/agents.json"

# Every flight record must decode cleanly: at least one sample, strictly
# monotonic timestamps across chunks.
found=0
for f in "$WORK"/ftdc-off/*.ftdc "$WORK"/ftdc-on/*.ftdc; do
    [ -e "$f" ] || continue
    found=$((found + 1))
    "$TMP/ftdcdump" -check "$f"
done
if [ "$found" -lt 2 ]; then
    echo "soak-smoke: expected 2 flight records, found $found" >&2
    exit 1
fi

# One summary carries both runs plus the agents section, and every run
# saw real traffic.
for key in '"chaos_off"' '"chaos_on"' '"ftdc"' '"profile"' '"stageShares"' '"agents"' '"accountingOk": true'; do
    grep -q "$key" "$OUT" || {
        echo "soak-smoke: $OUT missing $key" >&2
        cat "$OUT" >&2
        exit 1
    }
done
if grep -q '"framesIngested": 0,' "$OUT"; then
    echo "soak-smoke: a run ingested no frames" >&2
    cat "$OUT" >&2
    exit 1
fi
# Each run's self-profile names a CPU artifact that go tool pprof reads.
for run in off on; do
    cpu=$(grep -o "\"cpuPath\": *\"$WORK/prof-$run/[^\"]*\"" "$OUT" | sed 's/.*: *"//; s/"$//')
    if [ -z "$cpu" ]; then
        echo "soak-smoke: chaos_$run profile has no cpuPath under $WORK/prof-$run" >&2
        cat "$OUT" >&2
        exit 1
    fi
    sh "$(dirname "$0")/pprof_top_check.sh" "$cpu"
done
if grep -q '"resumes": 0,' "$OUT"; then
    echo "soak-smoke: the agent fleet never exercised cursor resume" >&2
    cat "$OUT" >&2
    exit 1
fi

echo "soak-smoke: ok (2 soaks + agent fleet, $found flight records decoded, wrote $OUT)"

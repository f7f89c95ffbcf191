#!/bin/sh
# bench-compare: the perf-regression watchdog. Diffs the current PR's
# BENCH_<pr>.json against the previous PR's checked-in baseline with
# cmd/benchcompare and fails on gated regressions: latency p99 blowups
# beyond the (noise-clamped) ratio, throughput collapse, a missing
# self-profile section, or a missing /
# unhealthy distributed-capture "agents" section (throughput, cursor
# resume, exactly-once accounting). The gate ratios are generous because
# the baseline was produced on different hardware; see cmd/benchcompare's
# doc comment for the exact semantics.
#
# Usage: sh scripts/bench_compare.sh [current] [previous]
# Env overrides: CUR, PREV (same positions); REQUIRE_AGENTS=0 drops the
# agents gate (for summaries predating the distributed capture plane).
set -eu

CUR="${1:-${CUR:-BENCH_10.json}}"
PREV="${2:-${PREV:-BENCH_9.json}}"
REQUIRE_AGENTS="${REQUIRE_AGENTS:-1}"

if [ ! -f "$CUR" ]; then
    echo "bench_compare: current summary $CUR not found (run scripts/soak_smoke.sh first)" >&2
    exit 1
fi
if [ ! -f "$PREV" ]; then
    echo "bench_compare: previous summary $PREV not found" >&2
    exit 1
fi

AGENTS_FLAG=""
if [ "$REQUIRE_AGENTS" = 1 ]; then
    AGENTS_FLAG="-require-agents"
fi
# $AGENTS_FLAG is deliberately unquoted: empty means no extra argument.
go run ./cmd/benchcompare -prev "$PREV" -cur "$CUR" $AGENTS_FLAG

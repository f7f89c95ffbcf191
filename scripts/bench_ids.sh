#!/bin/sh
# bench_ids: the one source of truth for which perf summaries the bench
# scripts and CI use. Prints the number of the current summary, the
# highest-numbered BENCH_<n>.json at the repository root, or with "prev"
# the next lower number that has a summary there.
#
# Usage: sh scripts/bench_ids.sh [cur|prev]
set -eu
cd "$(dirname "$0")/.."

case "${1:-cur}" in
cur) rank=1 ;;
prev) rank=2 ;;
*)
    echo "usage: sh scripts/bench_ids.sh [cur|prev]" >&2
    exit 2
    ;;
esac
ids=$(ls BENCH_*.json 2>/dev/null | sed -n 's/^BENCH_\([0-9][0-9]*\)\.json$/\1/p' | sort -n | tail -n "$rank")
if [ "$(echo "$ids" | grep -c .)" -lt "$rank" ]; then
    echo "bench_ids: no ${1:-cur} BENCH_<n>.json at the repository root" >&2
    exit 1
fi
echo "$ids" | head -n 1

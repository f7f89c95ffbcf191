#!/bin/sh
# pprof_top_check: fails unless `go tool pprof -top` reads every given
# CPU profile and lists at least one function in each. An artifact that
# is missing, truncated, not a profile, or holds no samples fails; the
# profile-smoke and soak-smoke gates run it over the profiler's CPU
# artifacts.
#
# Usage: sh scripts/pprof_top_check.sh FILE...
set -eu

if [ "$#" -eq 0 ]; then
    echo "usage: sh scripts/pprof_top_check.sh FILE..." >&2
    exit 2
fi

out="$(mktemp)"
trap 'rm -f "$out"' EXIT INT TERM

for f in "$@"; do
    if ! go tool pprof -top "$f" >"$out" 2>&1; then
        echo "pprof_top_check: go tool pprof cannot read $f" >&2
        cat "$out" >&2
        exit 1
    fi
    # Function rows follow the "flat  flat%  sum%  cum  cum%" header; an
    # empty profile prints the header alone.
    funcs=$(sed -n '/flat%.*cum%/,$p' "$out" | sed 1d | grep -c . || true)
    if [ "$funcs" -eq 0 ]; then
        echo "pprof_top_check: $f lists no functions" >&2
        cat "$out" >&2
        exit 1
    fi
    echo "pprof_top_check: $f lists $funcs functions"
done

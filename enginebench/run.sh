#!/usr/bin/env bash
# Builds the engine benchmark from source into .bench_build/ at the
# repository root and runs it with the given arguments, e.g.
#
#   bash enginebench/run.sh --workload live_map --seed 1 --seconds 10 --trace 0
#
# The Go build and module caches live under .bench_build/ too, so a run
# reads and writes only inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C enginebench build -o "$out/enginebench" .
exec "$out/enginebench" "$@"

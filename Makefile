# Development workflow for the Marauder's-map reproduction. The repo has
# no dependencies outside the Go standard library, so these targets are
# the entire toolchain.

GO ?= go

.PHONY: all build vet test race bench fmt check metrics-smoke trace-smoke chaos-smoke agent-smoke soak-smoke profile-smoke fuzz-smoke bench-ingest bench-store bench-compare bench-pr bench-test bench-window

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The engine's ingest-while-snapshot path is concurrency-critical; run the
# whole suite under the race detector.
race:
	$(GO) test -race ./...

# Repro tables/figures plus the engine throughput benchmarks.
bench:
	$(GO) test -run xxx -bench . -benchmem .

bench-engine:
	$(GO) test -run xxx -bench BenchmarkEngineSnapshot .

# Map-frame microbenchmarks: the Γ window query on a 10⁵-device store and
# BenchmarkEngineSnapshot at 200 and 10⁴ devices. CI runs each once
# (BENCHTIME=1x) so they keep building and running.
BENCHTIME ?= 1s
bench-window:
	$(GO) test -run '^$$' -bench 'BenchmarkAppendAPSetWindow$$' -benchtime $(BENCHTIME) -benchmem ./internal/obs
	$(GO) test -run '^$$' -bench 'BenchmarkEngineSnapshot$$' -benchtime $(BENCHTIME) -benchmem .

# Seed single-lock store vs the sharded+batched ingest path, with a
# benchstat comparison when benchstat is available.
bench-ingest:
	sh scripts/bench_ingest.sh

# AP-store regression gate: grid-indexed Within vs the linear scan at
# 255/1e5/1e6 APs plus the snapshot/codec and engine-frame benchmarks,
# recorded into BENCH_6.json. Fails unless the grid holds a >= 50x lead
# at 1e6 APs.
bench-store:
	sh scripts/bench_store.sh

# Engine-benchmark output checks: the end-to-end guard for solver and
# engine changes (AP-Rad LP optimum against the benchmark's own simplex,
# radius floors, the cold map). enginebench is its own module, so it is
# not part of `go test ./...`.
bench-test:
	cd enginebench && $(GO) test .

# Perf-regression watchdog: diff the current BENCH_<n>.json (the
# highest-numbered one; scripts/bench_ids.sh) against the next lower
# checked-in baseline and fail on gated regressions (p99 blowups,
# throughput collapse, missing profile).
bench-compare:
	sh scripts/bench_compare.sh

# Regenerate the current versioned perf summary: two mini-soaks (chaos
# off/on) through the flight recorder and the loopback agent-fleet run,
# merged into the highest-numbered BENCH_<n>.json (scripts/bench_ids.sh),
# then the regression watchdog against the next lower baseline.
bench-pr:
	sh scripts/soak_smoke.sh
	sh scripts/bench_compare.sh

# Short fuzzing burst over every fuzz target: the frame parsers (with the
# aliasing DecodeInto held to the copying Decode), the sharded store's
# record ingest, the AP-snapshot codec and the capwire decoder.
# Checked-in corpora under testdata/fuzz replay as plain tests; this
# keeps mining.
fuzz-smoke:
	$(GO) test -run xxx -fuzz 'FuzzDecode$$' -fuzztime=10s ./internal/dot11
	$(GO) test -run xxx -fuzz 'FuzzDecodeInto$$' -fuzztime=10s ./internal/dot11
	$(GO) test -run xxx -fuzz 'FuzzDecodeRadiotap$$' -fuzztime=10s ./internal/dot11
	$(GO) test -run xxx -fuzz 'FuzzFrameParse$$' -fuzztime=10s ./internal/dot11
	$(GO) test -run xxx -fuzz 'FuzzIngest$$' -fuzztime=10s ./internal/obs
	$(GO) test -run xxx -fuzz 'FuzzSnapshotCodec$$' -fuzztime=10s ./internal/apdb
	$(GO) test -run xxx -fuzz 'FuzzCapwireDecode$$' -fuzztime=10s ./internal/capwire

fmt:
	gofmt -l -w .

# End-to-end observability gate: boot cmd/marauder on the sim world with
# -metrics-addr, scrape /metrics, and assert the engine cache counters,
# snapshot-latency histogram and per-algorithm error histogram are served.
metrics-smoke:
	sh scripts/metrics_smoke.sh

# End-to-end explainability gate: boot cmd/marauder with -trace, pull a
# device off /api/state, and assert /api/explain serves its provenance
# (algorithm, Γ, k, intersected area vs Theorem 2, cache hit, stage
# durations) and the /api/* method/caching contract holds.
trace-smoke:
	sh scripts/trace_smoke.sh

# End-to-end robustness gate: boot cmd/marauder with -chaos and
# checkpointing, SIGKILL it mid-run, restart on the same checkpoint
# directory, and assert the recovery log line and a live /api/health.
chaos-smoke:
	sh scripts/chaos_smoke.sh

# End-to-end distributed-capture gate: marauder with the agent plane as
# its only capture source, two capagents under the aggressive wire fault
# plan, one SIGKILLed and restarted mid-stream — must resume at its
# acked cursor with per-agent accounting balanced and metrics exported.
agent-smoke:
	sh scripts/agent_chaos_smoke.sh

# End-to-end flight-recorder gate: two mini-soaks (chaos off/on) through
# the FTDC recorder, ftdcdump -check on every record, and a merged
# BENCH_<pr>.json carrying both runs.
soak-smoke:
	sh scripts/soak_smoke.sh

# End-to-end profiling/SLO gate: a one-shot marauder run must write all
# five profile kinds and print a decoded hot-function attribution; a
# serving run must answer /api/slo and /api/profile with live content
# and export the stage/SLO metric families.
profile-smoke:
	sh scripts/profile_smoke.sh

# The gate CI runs: everything must pass before a merge.
check: vet build test race bench-test metrics-smoke trace-smoke chaos-smoke agent-smoke soak-smoke profile-smoke bench-store bench-compare

// Command benchcompare is the perf-regression watchdog: it diffs the
// current PR's versioned BENCH_<pr>.json against the previous PR's and
// fails (exit 1) when a gated metric regressed. scripts/bench_compare.sh
// runs it in CI after soak-smoke regenerates the current summary.
//
// Usage:
//
//	benchcompare -prev BENCH_8.json -cur BENCH_9.json
//	             [-max-p99-ratio 2.5] [-min-throughput-ratio 0.4]
//	             [-require-profile=true]
//
// The gates are deliberately generous: the checked-in previous summary
// was produced on a different machine than the CI runner, so only
// order-of-magnitude regressions should trip them. Latency gates use a
// noise floor (the previous value is clamped up to the floor before the
// ratio applies), so sub-floor jitter on near-zero latencies cannot
// fail the build. Absolute gates (the profile- and agents-section
// requirements) bind regardless of the baseline.
//
// Checks, per run name present in both summaries' "runs":
//
//   - fix.p99Ms and mapFrame.p99Ms within max-p99-ratio of the previous
//     value (noise floors 0.05 ms and 1 ms respectively)
//   - framesPerWallSec at least min-throughput-ratio of the previous run
//   - framesIngested non-zero
//
// Plus, against the current summary alone:
//
//   - with -require-profile, every current run carries a "profile"
//     section with a non-empty CPU artifact (cpuBytes) and per-stage
//     shares
//   - with -require-agents, the current summary carries an "agents"
//     section (the distributed-capture loopback run merged via
//     cmd/soak -merge-extra agents=FILE) proving the wire moved frames
//     (framesPerSec > 0), exercised cursor resume (resumes >= 1), and
//     kept the exactly-once books balanced (accountingOk)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchcompare: %v\n", err)
		os.Exit(1)
	}
}

// check is one gate evaluation, kept for the report table.
type check struct {
	name   string
	detail string
	ok     bool
}

// comparer accumulates gate results against the two parsed summaries.
type comparer struct {
	prev, cur map[string]any
	checks    []check
}

func (c *comparer) add(name string, ok bool, format string, args ...any) {
	c.checks = append(c.checks, check{name: name, detail: fmt.Sprintf(format, args...), ok: ok})
}

// dig walks nested JSON objects by key path.
func dig(doc map[string]any, path ...string) (any, bool) {
	var v any = doc
	for _, k := range path {
		m, ok := v.(map[string]any)
		if !ok {
			return nil, false
		}
		if v, ok = m[k]; !ok {
			return nil, false
		}
	}
	return v, true
}

func digFloat(doc map[string]any, path ...string) (float64, bool) {
	v, ok := dig(doc, path...)
	if !ok {
		return 0, false
	}
	f, ok := v.(float64)
	return f, ok
}

// clampFloor returns v raised to at least floor — the noise clamp for
// latency baselines.
func clampFloor(v, floor float64) float64 {
	if v < floor {
		return floor
	}
	return v
}

// compareRun applies the per-run gates for one run name present in both
// summaries.
func (c *comparer) compareRun(name string, maxP99Ratio, minThroughputRatio float64) {
	latencyGates := []struct {
		label string
		path  []string
		floor float64 // ms
	}{
		{"fix.p99Ms", []string{"runs", name, "fix", "p99Ms"}, 0.05},
		{"mapFrame.p99Ms", []string{"runs", name, "mapFrame", "p99Ms"}, 1.0},
	}
	for _, g := range latencyGates {
		prev, pok := digFloat(c.prev, g.path...)
		cur, cok := digFloat(c.cur, g.path...)
		gate := g.label + " (" + name + ")"
		if !pok || !cok {
			c.add(gate, false, "missing (prev present: %v, cur present: %v)", pok, cok)
			continue
		}
		limit := clampFloor(prev, g.floor) * maxP99Ratio
		c.add(gate, cur <= limit, "cur %.4f ms vs prev %.4f ms (limit %.4f ms)", cur, prev, limit)
	}

	prevT, pok := digFloat(c.prev, "runs", name, "framesPerWallSec")
	curT, cok := digFloat(c.cur, "runs", name, "framesPerWallSec")
	gate := "framesPerWallSec (" + name + ")"
	if !pok || !cok {
		c.add(gate, false, "missing (prev present: %v, cur present: %v)", pok, cok)
	} else {
		limit := prevT * minThroughputRatio
		c.add(gate, curT >= limit, "cur %.0f/s vs prev %.0f/s (floor %.0f/s)", curT, prevT, limit)
	}

	ingested, ok := digFloat(c.cur, "runs", name, "framesIngested")
	c.add("framesIngested ("+name+")", ok && ingested > 0, "cur %.0f", ingested)
}

// checkProfile requires the current run's self-profile section: a
// non-empty CPU artifact and non-empty per-stage shares.
func (c *comparer) checkProfile(name string) {
	gate := "profile (" + name + ")"
	p, ok := dig(c.cur, "runs", name, "profile")
	if !ok {
		c.add(gate, false, "section missing")
		return
	}
	prof, _ := p.(map[string]any)
	cpuBytes, _ := prof["cpuBytes"].(float64)
	stages, _ := prof["stageShares"].(map[string]any)
	c.add(gate, cpuBytes > 0 && len(stages) > 0,
		"%d B cpu artifact, %d stage shares", int64(cpuBytes), len(stages))
}

// checkAgents requires the current summary's distributed-capture
// section: the loopback agent run must have moved frames over the wire,
// resumed at least one session, and balanced the exactly-once books.
func (c *comparer) checkAgents() {
	a, ok := dig(c.cur, "agents")
	if !ok {
		c.add("agents", false, "section missing")
		return
	}
	sec, _ := a.(map[string]any)
	fps, _ := sec["framesPerSec"].(float64)
	resumes, _ := sec["resumes"].(float64)
	accountingOk, _ := sec["accountingOk"].(bool)
	c.add("agents.framesPerSec", fps > 0, "cur %.0f/s", fps)
	c.add("agents.resumes", resumes >= 1, "cur %.0f (floor 1)", resumes)
	c.add("agents.accountingOk", accountingOk, "cur %v", accountingOk)
}

func loadSummary(path string) (map[string]any, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchcompare", flag.ContinueOnError)
	prevPath := fs.String("prev", "", "previous PR's BENCH_<pr>.json (required)")
	curPath := fs.String("cur", "", "current PR's BENCH_<pr>.json (required)")
	maxP99Ratio := fs.Float64("max-p99-ratio", 2.5, "fail when a latency p99 exceeds this multiple of the previous (noise-clamped) value")
	minThroughputRatio := fs.Float64("min-throughput-ratio", 0.4, "fail when framesPerWallSec drops below this fraction of the previous run")
	requireProfile := fs.Bool("require-profile", true, "fail when a current run lacks a profile section with a CPU artifact and stage shares")
	requireAgents := fs.Bool("require-agents", false, "fail when the current summary lacks an agents section with throughput, a resume, and balanced accounting")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *prevPath == "" || *curPath == "" {
		return fmt.Errorf("-prev and -cur are required")
	}
	prev, err := loadSummary(*prevPath)
	if err != nil {
		return err
	}
	cur, err := loadSummary(*curPath)
	if err != nil {
		return err
	}

	c := &comparer{prev: prev, cur: cur}

	if *requireAgents {
		c.checkAgents()
	}

	curRuns, _ := dig(cur, "runs")
	curRunMap, _ := curRuns.(map[string]any)
	if len(curRunMap) == 0 {
		c.add("runs", false, "current summary has no runs")
	}
	compared := 0
	for name := range curRunMap {
		if _, ok := dig(prev, "runs", name); ok {
			c.compareRun(name, *maxP99Ratio, *minThroughputRatio)
			compared++
		}
		if *requireProfile {
			c.checkProfile(name)
		}
	}
	if len(curRunMap) > 0 && compared == 0 {
		c.add("runs", false, "no current run name matches a previous run")
	}

	failed := 0
	for _, ck := range c.checks {
		status := "ok  "
		if !ck.ok {
			status = "FAIL"
			failed++
		}
		fmt.Fprintf(out, "%s  %-32s %s\n", status, ck.name, ck.detail)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d gates failed (%s vs %s)", failed, len(c.checks), *curPath, *prevPath)
	}
	fmt.Fprintf(out, "benchcompare: all %d gates passed (%s vs %s)\n", len(c.checks), *curPath, *prevPath)
	return nil
}

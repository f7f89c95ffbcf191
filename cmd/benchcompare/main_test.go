package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// summary builds a minimal BENCH_<pr>.json document; mutate copies of it
// to inject regressions.
func summary(withProfile bool) map[string]any {
	run := map[string]any{
		"fix":              map[string]any{"p99Ms": 0.01},
		"mapFrame":         map[string]any{"p99Ms": 2.0},
		"framesPerWallSec": 9000.0,
		"framesIngested":   40000.0,
	}
	if withProfile {
		run["profile"] = map[string]any{
			"samples":      38.0,
			"topFunctions": []any{map[string]any{"name": "hot", "flat": 1.0}},
			"stageShares":  map[string]any{"ingest": 0.8, "localize": 0.2},
		}
	}
	return map[string]any{
		"runs": map[string]any{"chaos_off": run},
	}
}

func writeJSON(t *testing.T, path string, doc map[string]any) {
	t.Helper()
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// compare runs the tool on the two documents and returns (err, output).
func compare(t *testing.T, prev, cur map[string]any, extra ...string) (error, string) {
	t.Helper()
	dir := t.TempDir()
	pp, cp := filepath.Join(dir, "prev.json"), filepath.Join(dir, "cur.json")
	writeJSON(t, pp, prev)
	writeJSON(t, cp, cur)
	var buf strings.Builder
	args := append([]string{"-prev", pp, "-cur", cp}, extra...)
	return run(args, &buf), buf.String()
}

func TestCleanSummariesPass(t *testing.T) {
	err, out := compare(t, summary(false), summary(true))
	if err != nil {
		t.Fatalf("clean summaries failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "all ") {
		t.Errorf("missing pass banner:\n%s", out)
	}
}

// Each injected regression must be caught by exactly its gate.
func TestInjectedRegressionsFail(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(cur map[string]any)
		gate   string
	}{
		{
			"fix p99 blowup",
			func(cur map[string]any) {
				runOf(cur)["fix"] = map[string]any{"p99Ms": 10.0}
			},
			"fix.p99Ms",
		},
		{
			"map-frame p99 blowup",
			func(cur map[string]any) {
				runOf(cur)["mapFrame"] = map[string]any{"p99Ms": 50.0}
			},
			"mapFrame.p99Ms",
		},
		{
			"throughput collapse",
			func(cur map[string]any) { runOf(cur)["framesPerWallSec"] = 100.0 },
			"framesPerWallSec",
		},
		{
			"nothing ingested",
			func(cur map[string]any) { runOf(cur)["framesIngested"] = 0.0 },
			"framesIngested",
		},
		{
			"profile section dropped",
			func(cur map[string]any) { delete(runOf(cur), "profile") },
			"profile",
		},
		{
			"empty attribution",
			func(cur map[string]any) {
				runOf(cur)["profile"] = map[string]any{
					"samples": 0.0, "topFunctions": []any{}, "stageShares": map[string]any{},
				}
			},
			"profile",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cur := summary(true)
			tc.mutate(cur)
			err, out := compare(t, summary(false), cur)
			if err == nil {
				t.Fatalf("injected regression passed:\n%s", out)
			}
			for _, line := range strings.Split(out, "\n") {
				if strings.HasPrefix(line, "FAIL") && strings.Contains(line, tc.gate) {
					return
				}
			}
			t.Errorf("no FAIL line names %q:\n%s", tc.gate, out)
		})
	}
}

// runOf digs out the mutable chaos_off run map.
func runOf(doc map[string]any) map[string]any {
	return doc["runs"].(map[string]any)["chaos_off"].(map[string]any)
}

// agentsSection builds a healthy distributed-capture section as
// cmd/soak -merge-extra agents=FILE embeds it.
func agentsSection() map[string]any {
	return map[string]any{
		"agents":       2.0,
		"framesPerSec": 500.0,
		"resumes":      3.0,
		"accountingOk": true,
	}
}

// The agents gate is opt-in: absent section passes without
// -require-agents, and with it every sub-gate must hold.
func TestAgentsGate(t *testing.T) {
	if err, out := compare(t, summary(false), summary(true)); err != nil {
		t.Fatalf("missing agents section failed without -require-agents: %v\n%s", err, out)
	}

	cur := summary(true)
	cur["agents"] = agentsSection()
	if err, out := compare(t, summary(false), cur, "-require-agents"); err != nil {
		t.Fatalf("healthy agents section failed: %v\n%s", err, out)
	}

	cases := []struct {
		name   string
		mutate func(cur map[string]any)
		gate   string
	}{
		{"section dropped", func(cur map[string]any) { delete(cur, "agents") }, "agents"},
		{
			"wire moved nothing",
			func(cur map[string]any) { cur["agents"].(map[string]any)["framesPerSec"] = 0.0 },
			"agents.framesPerSec",
		},
		{
			"resume path untested",
			func(cur map[string]any) { cur["agents"].(map[string]any)["resumes"] = 0.0 },
			"agents.resumes",
		},
		{
			"accounting broken",
			func(cur map[string]any) { cur["agents"].(map[string]any)["accountingOk"] = false },
			"agents.accountingOk",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cur := summary(true)
			cur["agents"] = agentsSection()
			tc.mutate(cur)
			err, out := compare(t, summary(false), cur, "-require-agents")
			if err == nil {
				t.Fatalf("injected agents regression passed:\n%s", out)
			}
			for _, line := range strings.Split(out, "\n") {
				if strings.HasPrefix(line, "FAIL") && strings.Contains(line, tc.gate) {
					return
				}
			}
			t.Errorf("no FAIL line names %q:\n%s", tc.gate, out)
		})
	}
}

// Sub-floor latency jitter must not fail the ratio gate: prev 0.001 ms,
// cur 0.04 ms is a 40x ratio but both sit under the 0.05 ms noise floor.
func TestNoiseFloorAbsorbsTinyLatencies(t *testing.T) {
	prev, cur := summary(false), summary(true)
	prev["runs"].(map[string]any)["chaos_off"].(map[string]any)["fix"] = map[string]any{"p99Ms": 0.001}
	runOf(cur)["fix"] = map[string]any{"p99Ms": 0.04}
	err, out := compare(t, prev, cur)
	if err != nil {
		t.Fatalf("noise-floor latencies failed the gate: %v\n%s", err, out)
	}
}

// A current run with no matching previous run must not silently pass.
func TestDisjointRunNamesFail(t *testing.T) {
	prev := summary(false)
	prev["runs"] = map[string]any{"other_run": map[string]any{}}
	err, out := compare(t, prev, summary(true))
	if err == nil {
		t.Fatalf("disjoint run names passed:\n%s", out)
	}
}

// The real checked-in previous summary must parse and carry the gated
// fields — guards against the baseline file drifting out of shape.
func TestCheckedInBaselineShape(t *testing.T) {
	doc, err := loadSummary("../../BENCH_9.json")
	if err != nil {
		t.Fatalf("loading checked-in baseline: %v", err)
	}
	for _, name := range []string{"chaos_off", "chaos_on"} {
		if _, ok := digFloat(doc, "runs", name, "fix", "p99Ms"); !ok {
			t.Errorf("BENCH_9.json lacks runs.%s.fix.p99Ms", name)
		}
	}
}

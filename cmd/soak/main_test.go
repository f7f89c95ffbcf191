package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry/ftdc"
)

// readBench decodes a BENCH summary file.
func readBench(t *testing.T, path string) map[string]any {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("summary is not JSON: %v", err)
	}
	return doc
}

func TestSoakEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping wall-clock soak")
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_test.json")
	ftdcDir := filepath.Join(dir, "ftdc")
	err := run([]string{
		"-duration", "1200ms", "-devices", "40", "-aps", "60",
		"-speedup", "1200", "-tick", "50ms", "-frame-every", "200ms",
		"-sim-start", "11h",
		"-ftdc-dir", ftdcDir, "-ftdc-interval", "200ms",
		"-out", out, "-pr", "99", "-run-name", "test_run",
	})
	if err != nil {
		t.Fatal(err)
	}

	doc := readBench(t, out)
	if doc["pr"].(float64) != 99 {
		t.Errorf("pr = %v, want 99", doc["pr"])
	}
	runs := doc["runs"].(map[string]any)
	rs, ok := runs["test_run"].(map[string]any)
	if !ok {
		t.Fatalf("runs.test_run missing: %v", runs)
	}
	if rs["framesIngested"].(float64) <= 0 {
		t.Error("soak ingested no frames")
	}
	if rs["simSeconds"].(float64) <= 0 {
		t.Error("simulated clock did not advance")
	}
	fix := rs["fix"].(map[string]any)
	if fix["count"].(float64) <= 0 {
		t.Error("no fix latency samples")
	}

	// The flight record is the run's primary artifact: it must decode and
	// carry both the rig's own series and the runtime sampler's.
	info := rs["ftdc"].(map[string]any)
	path := info["path"].(string)
	chunks, err := ftdc.ReadFile(path)
	if err != nil {
		t.Fatalf("decoding flight record: %v", err)
	}
	if len(chunks) == 0 || len(chunks[0].Samples) == 0 {
		t.Fatal("flight record is empty")
	}
	names := map[string]bool{}
	for _, c := range chunks {
		for _, col := range c.Columns {
			names[col.Name] = true
		}
	}
	for _, want := range []string{
		ftdc.TimeColumn,
		"soak_frames_delivered_total",
		"soak_sim_time_seconds",
		"marauder_process_rss_bytes",
		"marauder_process_goroutines",
	} {
		if !names[want] {
			t.Errorf("flight record missing column %s", want)
		}
	}
}

func TestMergeMicroAndRunPreservation(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_test.json")
	if err := os.WriteFile(out, []byte(`{"runs":{"existing":{"framesIngested":7}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	micro := filepath.Join(dir, "micro.json")
	if err := os.WriteFile(micro, []byte(`{"grid_speedup_1e6": 600.0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-duration", "0", "-out", out, "-pr", "7", "-merge-micro", micro})
	if err != nil {
		t.Fatal(err)
	}
	doc := readBench(t, out)
	if doc["micro"].(map[string]any)["grid_speedup_1e6"].(float64) != 600 {
		t.Errorf("micro section not merged: %v", doc["micro"])
	}
	runs := doc["runs"].(map[string]any)
	if runs["existing"].(map[string]any)["framesIngested"].(float64) != 7 {
		t.Errorf("merge clobbered an existing run: %v", runs)
	}
}

func TestMergeExtraSections(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_test.json")
	if err := os.WriteFile(out, []byte(`{"runs":{"existing":{"framesIngested":7}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	agents := filepath.Join(dir, "agents.json")
	if err := os.WriteFile(agents, []byte(`{"framesPerSec": 5.2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-duration", "0", "-out", out, "-pr", "8", "-merge-extra", "agents=" + agents})
	if err != nil {
		t.Fatal(err)
	}
	doc := readBench(t, out)
	if doc["agents"].(map[string]any)["framesPerSec"].(float64) != 5.2 {
		t.Errorf("agents section not merged: %v", doc["agents"])
	}
	if doc["runs"].(map[string]any)["existing"].(map[string]any)["framesIngested"].(float64) != 7 {
		t.Errorf("merge clobbered an existing run: %v", doc["runs"])
	}

	// Malformed specs and reserved keys are rejected outright.
	for _, spec := range []string{"nofile", "=x", "agents=", "runs=" + agents} {
		if err := run([]string{"-duration", "0", "-out", out, "-merge-extra", spec}); err == nil {
			t.Errorf("want error for -merge-extra %q", spec)
		}
	}
	if err := run([]string{"-duration", "0", "-out", out, "-merge-extra", "agents=" + filepath.Join(dir, "missing.json")}); err == nil {
		t.Error("want error for missing -merge-extra file")
	}
}

func TestMergeRejectsCorruptInputs(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-duration", "0", "-out", bad}); err == nil ||
		!strings.Contains(err.Error(), "not JSON") {
		t.Errorf("want not-JSON error for corrupt -out, got %v", err)
	}
	good := filepath.Join(dir, "good.json")
	if err := run([]string{"-duration", "0", "-out", good, "-merge-micro", filepath.Join(dir, "missing.json")}); err == nil {
		t.Error("want error for missing -merge-micro file")
	}
}

func TestNewLocalizerRejectsTrainedAlgos(t *testing.T) {
	for _, algo := range []string{"aprad", "aploc", "nope"} {
		if _, err := newLocalizer(algo); err == nil {
			t.Errorf("newLocalizer(%q) should fail", algo)
		}
	}
	for _, algo := range []string{"mloc", "", "centroid", "closest"} {
		if _, err := newLocalizer(algo); err != nil {
			t.Errorf("newLocalizer(%q): %v", algo, err)
		}
	}
}

func TestParseFlagsDefaults(t *testing.T) {
	c, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.RunName != "chaos_off" {
		t.Errorf("default run name = %q, want chaos_off", c.RunName)
	}
	if c.FTDCEvery != time.Second {
		t.Errorf("default ftdc interval = %v, want 1s", c.FTDCEvery)
	}
	c, err = parseFlags([]string{"-chaos"})
	if err != nil {
		t.Fatal(err)
	}
	if c.RunName != "chaos_on" {
		t.Errorf("chaos default run name = %q, want chaos_on", c.RunName)
	}
}

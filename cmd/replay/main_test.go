package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

func TestRunDemoRoundTrip(t *testing.T) {
	dir := t.TempDir()
	pcapPath := filepath.Join(dir, "cap.pcap")
	apsPath := filepath.Join(dir, "aps.csv")
	obsPath := filepath.Join(dir, "obs.json")
	err := run([]string{
		"-demo", "-pcap", pcapPath, "-aps", apsPath, "-obs", obsPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{pcapPath, apsPath, obsPath} {
		info, err := os.Stat(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if info.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
	// Replaying the same artifacts without -demo also works, for every
	// replayable algorithm behind the engine's Localizer interface.
	for _, algo := range []string{"centroid", "closest"} {
		if err := run([]string{"-pcap", pcapPath, "-aps", apsPath, "-algo", algo}); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
	}
	if !testing.Short() {
		// AP-Rad re-trains radii from the replayed co-observations.
		if err := run([]string{"-pcap", pcapPath, "-aps", apsPath, "-algo", "aprad"}); err != nil {
			t.Fatalf("aprad: %v", err)
		}
	}
}

// TestRunCheckpointRoundTrip pins the replay's checkpoint contract: one
// final checkpoint per run, restored by the next run, which numbers its
// own checkpoint after the one it loaded.
func TestRunCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	pcapPath := filepath.Join(dir, "cap.pcap")
	apsPath := filepath.Join(dir, "aps.csv")
	ckptDir := filepath.Join(dir, "ckpt")
	if err := run([]string{"-demo", "-pcap", pcapPath, "-aps", apsPath, "-checkpoint-dir", ckptDir}); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("first run wrote %d checkpoint files, want 1", len(files))
	}
	store, info, err := obs.Recover(ckptDir, 0)
	if err != nil || store == nil {
		t.Fatalf("recover first checkpoint: store=%v err=%v", store, err)
	}
	if info.Meta.Generation != 1 || info.Meta.Records == 0 || len(info.Skipped) != 0 {
		t.Fatalf("first checkpoint: %+v", info)
	}
	first := info.Meta.Records

	if err := run([]string{"-pcap", pcapPath, "-aps", apsPath, "-checkpoint-dir", ckptDir}); err != nil {
		t.Fatal(err)
	}
	_, info, err = obs.Recover(ckptDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Generation 2 is only reachable by restoring generation 1 first; an
	// unrestored run would write generation 1 again.
	if info.Meta.Generation != 2 || info.Meta.Records < first {
		t.Errorf("second checkpoint: %+v, want generation 2 with >= %d records", info.Meta, first)
	}
}

func TestRunValidation(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("want error for missing flags")
	}
	if err := run([]string{"-pcap", "x", "-aps", "y", "-algo", "nope"}); err == nil {
		t.Error("want error for missing files")
	}
	if err := run([]string{"-bad"}); err == nil {
		t.Error("want flag error")
	}
	if err := run([]string{"-pcap", "x", "-aps", "y", "-log-level", "loud"}); err == nil {
		t.Error("want log level error")
	}
	if err := run([]string{"-pcap", "x", "-aps", "y", "-checkpoint-interval", "5s"}); err == nil {
		t.Error("want error for the removed -checkpoint-interval flag")
	}
}

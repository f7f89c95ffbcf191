package engine

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/sniffer"
	"repro/internal/telemetry"
)

// stageCounts reads the observation counts of every marauder_stage_seconds
// instance plus marauder_fix_seconds from the process-default registry.
func stageCounts() map[string]uint64 {
	out := map[string]uint64{}
	for _, s := range telemetry.Default().Snapshot() {
		switch s.Name {
		case "marauder_stage_seconds":
			out[s.Labels] = s.Count
		case "marauder_fix_seconds":
			out["fix"] = s.Count
		}
	}
	return out
}

func stageDelta(before, after map[string]uint64, key string) uint64 {
	return after[key] - before[key]
}

func TestStageHistogramsObserveEveryFixWhenSampled(t *testing.T) {
	k, store, devs := gridWorld(40, 8)
	e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30, StageSampleEvery: 1, CacheSize: -1})

	before := stageCounts()
	for _, dev := range devs {
		// Stage timing wraps the fix whether or not it succeeds (a device
		// outside coverage still pays window assembly), so errors don't
		// change the expected counts.
		_, _ = e.Fix(dev, 50)
	}
	after := stageCounts()

	n := uint64(len(devs))
	for _, stage := range []string{`stage="window_assembly"`, `stage="localize"`, `stage="trace_record"`} {
		if got := stageDelta(before, after, stage); got != n {
			t.Errorf("%s observations = %d, want %d", stage, got, n)
		}
	}
	if got := stageDelta(before, after, "fix"); got != n {
		t.Errorf("marauder_fix_seconds observations = %d, want %d", got, n)
	}
}

func TestStageSamplingDefaultsAndDisable(t *testing.T) {
	k, store, devs := gridWorld(40, 1)

	// Default: every 16th fix is timed.
	e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30})
	if e.stageEvery != 16 {
		t.Errorf("default stageEvery = %d, want 16", e.stageEvery)
	}
	before := stageCounts()
	for i := 0; i < 32; i++ {
		_, _ = e.Fix(devs[0], 50)
	}
	after := stageCounts()
	if got := stageDelta(before, after, "fix"); got != 2 {
		t.Errorf("32 fixes at 1-in-16 observed %d times, want 2", got)
	}

	// Negative disables stage timing entirely.
	e = testEngine(t, Config{Know: k, Store: store, WindowSec: 30, StageSampleEvery: -1})
	if e.stageEvery != 0 {
		t.Errorf("disabled stageEvery = %d, want 0", e.stageEvery)
	}
	before = stageCounts()
	for i := 0; i < 64; i++ {
		_, _ = e.Fix(devs[0], 50)
	}
	after = stageCounts()
	if got := stageDelta(before, after, "fix"); got != 0 {
		t.Errorf("disabled sampling still observed %d fixes", got)
	}
}

func TestSnapshotObservesStoreScanStage(t *testing.T) {
	k, store, _ := gridWorld(40, 6)
	e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30})
	before := stageCounts()
	if got := e.Snapshot(50); len(got) == 0 {
		t.Fatal("snapshot located nothing")
	}
	after := stageCounts()
	if got := stageDelta(before, after, `stage="store_scan"`); got != 1 {
		t.Errorf("store_scan observed %d times for one snapshot, want 1", got)
	}
}

func TestIngestCapturesObservesIngestStage(t *testing.T) {
	e := testEngine(t, Config{WindowSec: 30})
	f := dot11.NewProbeResponse(mac(1, 1), mac(2, 2), "", 1, 1)
	before := stageCounts()
	n := e.IngestCaptures([]sniffer.Capture{{TimeSec: 1, Frame: f, FromAP: true}})
	if n != 1 {
		t.Fatalf("ingested %d", n)
	}
	after := stageCounts()
	if got := stageDelta(before, after, `stage="ingest"`); got != 1 {
		t.Errorf("ingest stage observed %d times for one batch, want 1", got)
	}
}

// failLoc always errors — the "localizer broke" case the fix-error
// counter must see, as opposed to empty windows it must not.
type failLoc struct{}

func (failLoc) Name() string { return "fail" }
func (failLoc) Locate(core.Knowledge, []dot11.MAC) (core.Estimate, error) {
	return core.Estimate{}, errors.New("boom")
}

func readFixErrors(t *testing.T) uint64 {
	t.Helper()
	for _, s := range telemetry.Default().Snapshot() {
		if s.Name == "marauder_engine_fix_errors_total" {
			return s.Counter
		}
	}
	t.Fatal("marauder_engine_fix_errors_total not registered")
	return 0
}

func TestFixErrorCounterExcludesEmptyWindows(t *testing.T) {
	k, store, devs := gridWorld(40, 1)

	// Empty window (ErrNoAPs) is not an error for the availability SLO.
	e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30})
	before := readFixErrors(t)
	if _, err := e.Fix(devs[0], 5000); !errors.Is(err, core.ErrNoAPs) {
		t.Fatalf("want ErrNoAPs, got %v", err)
	}
	if got := readFixErrors(t) - before; got != 0 {
		t.Errorf("empty window counted as %d fix errors", got)
	}

	// A real localization failure is.
	e = testEngine(t, Config{Know: k, Store: store, WindowSec: 30, Localizer: failLoc{}, CacheSize: -1})
	before = readFixErrors(t)
	if _, err := e.Fix(devs[0], 50); err == nil {
		t.Fatal("failLoc fix succeeded")
	}
	if got := readFixErrors(t) - before; got != 1 {
		t.Errorf("failing fix counted as %d errors, want 1", got)
	}
}

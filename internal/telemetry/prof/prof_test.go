package prof

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

// spin burns CPU in a named function so a short self-capture has
// samples to record.
//
//go:noinline
func spin(stop *atomic.Bool, sink *atomic.Uint64) {
	var x uint64 = 88172645463325252
	for !stop.Load() {
		for i := 0; i < 4096; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		sink.Add(x)
	}
}

func TestNilProfilerIsSafe(t *testing.T) {
	var p *Profiler
	if err := p.Cycle(context.Background()); err != nil {
		t.Errorf("nil Cycle: %v", err)
	}
	p.Run(context.Background())
	if err := p.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
	stop := p.Around(context.Background())
	if err := stop(); err != nil {
		t.Errorf("nil Around: %v", err)
	}
	if st := p.Status(); st.Enabled {
		t.Error("nil Status reports Enabled")
	}
}

func TestProfilerCycleCapturesAndAttributes(t *testing.T) {
	dir := t.TempDir()
	p, err := New(Config{Dir: dir, CPUDuration: 250 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()

	var stop atomic.Bool
	var sink atomic.Uint64
	done := make(chan struct{})
	go func() { spin(&stop, &sink); close(done) }()
	err = p.Cycle(context.Background())
	stop.Store(true)
	<-done
	if err != nil {
		t.Fatalf("Cycle: %v", err)
	}

	checkArtifacts(t, dir, "000000")
	st := p.Status()
	if !st.Enabled || st.Cycles != 1 || st.Captures != 5 {
		t.Errorf("status: %+v", st)
	}
	if st.LastCPUPath != filepath.Join(dir, "prof-cpu-000000.pprof") || st.LastErr != "" {
		t.Errorf("status: %+v", st)
	}
	checkCPUArtifact(t, st)
	if st.Bytes <= 0 {
		t.Errorf("retained bytes not tracked: %+v", st)
	}
}

// checkArtifacts requires one non-empty artifact of every kind for the
// cycle with sequence number seq.
func checkArtifacts(t *testing.T, dir, seq string) {
	t.Helper()
	for _, kind := range []string{"cpu", "heap", "goroutine", "mutex", "block"} {
		path := filepath.Join(dir, "prof-"+kind+"-"+seq+".pprof")
		info, err := os.Stat(path)
		if err != nil {
			t.Errorf("missing %s artifact: %v", kind, err)
		} else if info.Size() == 0 {
			t.Errorf("%s artifact is empty", kind)
		}
	}
}

// checkCPUArtifact requires the CPU artifact Status points at to be the
// gzip stream runtime/pprof writes (what `go tool pprof` reads), of the
// size Status reports.
func checkCPUArtifact(t *testing.T, st Status) {
	t.Helper()
	data, err := os.ReadFile(st.LastCPUPath)
	if err != nil {
		t.Fatalf("reading cpu artifact: %v", err)
	}
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Fatalf("cpu artifact is not gzip (%d bytes)", len(data))
	}
	if int64(len(data)) != st.LastCPUBytes {
		t.Errorf("LastCPUBytes = %d, artifact has %d", st.LastCPUBytes, len(data))
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("cpu artifact: %v", err)
	}
	if n, err := io.Copy(io.Discard, zr); err != nil || n == 0 {
		t.Errorf("cpu artifact gunzips to %d bytes: %v", n, err)
	}
}

func TestAroundCoversWorkload(t *testing.T) {
	dir := t.TempDir()
	// CPUDuration far beyond the test: only stop can end the capture.
	p, err := New(Config{Dir: dir, CPUDuration: time.Hour, Interval: time.Hour})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()

	stopCycle := p.Around(context.Background())
	var stop atomic.Bool
	var sink atomic.Uint64
	done := make(chan struct{})
	go func() { spin(&stop, &sink); close(done) }()
	time.Sleep(100 * time.Millisecond)
	stop.Store(true)
	<-done
	if err := stopCycle(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	// stop returns only after the whole cycle: every artifact is on disk
	// and the cycle is counted.
	checkArtifacts(t, dir, "000000")
	st := p.Status()
	if st.Cycles != 1 || st.Captures != 5 || st.LastErr != "" {
		t.Errorf("status after stop: %+v", st)
	}
	checkCPUArtifact(t, st)
	if err := stopCycle(); err != nil {
		t.Errorf("second stop: %v", err)
	}
	if st := p.Status(); st.Cycles != 1 {
		t.Errorf("second stop ran another cycle: %+v", st)
	}
}

func TestProfilerRotationCapsBytes(t *testing.T) {
	dir := t.TempDir()
	p, err := New(Config{Dir: dir, MaxBytes: 4096, CPUDuration: time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()
	// Plant oversized fake artifacts older than anything the profiler
	// will write (sequence numbers sort first).
	for i := 0; i < 4; i++ {
		name := filepath.Join(dir, "prof-cpu-00000"+string(rune('0'+i))+".pprof")
		if err := os.WriteFile(name, bytes.Repeat([]byte{0xaa}, 2048), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p.mu.Lock()
	p.seq = 10 // write new artifacts after the planted ones
	p.mu.Unlock()
	if err := p.Cycle(context.Background()); err != nil {
		t.Fatalf("Cycle: %v", err)
	}
	var total int64
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	// Rotation deletes the oldest artifacts first, so the planted 8 KiB
	// of old fakes must be gone.
	for i := 0; i < 4; i++ {
		name := filepath.Join(dir, "prof-cpu-00000"+string(rune('0'+i))+".pprof")
		if _, err := os.Stat(name); err == nil {
			t.Errorf("old artifact %s survived rotation (dir total %d)", name, total)
		}
	}
}

func TestProfilerRunStopsOnCancel(t *testing.T) {
	dir := t.TempDir()
	p, err := New(Config{Dir: dir, Interval: time.Hour, CPUDuration: 50 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { p.Run(ctx); close(done) }()
	// Run takes its first cycle immediately; give it time to finish,
	// then cancel and require prompt exit.
	deadline := time.After(10 * time.Second)
	for p.Status().Cycles == 0 {
		select {
		case <-deadline:
			t.Fatal("first cycle never completed")
		case <-time.After(10 * time.Millisecond):
		}
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop on cancel")
	}
}

func TestCycleAfterCloseFails(t *testing.T) {
	p, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := p.Cycle(context.Background()); err == nil {
		t.Error("Cycle after Close succeeded")
	}
}

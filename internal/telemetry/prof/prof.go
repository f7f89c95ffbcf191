// Package prof is the continuous profiler: a background loop that
// periodically captures CPU, delta-heap, goroutine, mutex and block
// profiles from the running process into rotated, size-capped artifact
// files alongside the FTDC stream. The artifacts are standard pprof
// files: `go tool pprof -top <Status().LastCPUPath>` answers "what was
// hot" for any past cycle, and /debug/pprof answers it live.
//
// Like the FTDC recorder and the tracer, a nil *Profiler is the disabled
// state: every method absorbs the call at the cost of one nil check.
package prof

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// filePrefix names artifacts <filePrefix>-<kind>-<seq>.pprof. Each
// profiler owns its directory, so the prefix only keeps rotation off
// files it did not write.
const filePrefix = "prof"

// Config assembles a Profiler.
type Config struct {
	// Dir is the directory profile artifacts are written into; created if
	// missing. Required.
	Dir string
	// Interval is the pause between capture cycles; 0 means the default
	// 60 s.
	Interval time.Duration
	// CPUDuration is how long each CPU capture runs; 0 means the default
	// 10 s, and values above Interval are clamped to Interval.
	CPUDuration time.Duration
	// MaxBytes caps the total artifact bytes kept on disk; when a new
	// capture pushes the directory past the cap, the oldest artifacts are
	// deleted first. 0 means the default 64 MiB.
	MaxBytes int64
}

// Status is the profiler's self-report, shaped for /api/health detail
// and served alone at /api/profile.
type Status struct {
	// Enabled is false for a nil profiler — the "flag not set" report.
	Enabled bool `json:"enabled"`
	// Dir is the artifact directory.
	Dir string `json:"dir,omitempty"`
	// IntervalSec and CPUDurationSec echo the configured cadence.
	IntervalSec    float64 `json:"intervalSec,omitempty"`
	CPUDurationSec float64 `json:"cpuDurationSec,omitempty"`
	// Cycles counts completed capture cycles; Captures counts artifact
	// files written; Bytes the artifact bytes currently retained.
	Cycles   uint64 `json:"cycles"`
	Captures uint64 `json:"captures"`
	Bytes    int64  `json:"bytes"`
	// LastCPUPath is the most recent CPU artifact (read it with
	// `go tool pprof`) and LastCPUBytes its size.
	LastCPUPath  string `json:"lastCpuPath,omitempty"`
	LastCPUBytes int64  `json:"lastCpuBytes,omitempty"`
	// LastErr is the most recent capture error, "" when healthy.
	LastErr string `json:"lastErr,omitempty"`
}

// Profiler periodically captures runtime profiles into rotated artifact
// files. All methods are nil-safe.
type Profiler struct {
	cfg Config

	mu            sync.Mutex
	seq           uint64
	cycles        uint64
	captures      uint64
	retainedBytes int64
	lastErr       error
	lastCPU       string
	lastCPUBytes  int64
	closed        bool
}

// New validates the config and creates the artifact directory. Nothing
// is captured until Cycle, Around or Run.
func New(cfg Config) (*Profiler, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("prof: Config.Dir is required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 60 * time.Second
	}
	if cfg.CPUDuration <= 0 {
		cfg.CPUDuration = 10 * time.Second
	}
	if cfg.CPUDuration > cfg.Interval {
		cfg.CPUDuration = cfg.Interval
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 64 << 20
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("prof: %w", err)
	}
	return &Profiler{cfg: cfg}, nil
}

// Cycle runs one full capture cycle synchronously: a CPU capture of
// CPUDuration (cancellable via ctx), then heap, goroutine, mutex and
// block snapshots and artifact rotation. Returns the first error; the
// cycle continues past individual capture failures so one broken
// profile kind doesn't starve the rest.
func (p *Profiler) Cycle(ctx context.Context) error {
	return p.cycle(ctx, nil)
}

// Around runs one capture cycle concurrently with the caller's workload:
// it returns once the CPU capture is live, so the capture covers the
// work that follows (on a single-CPU box the capture goroutine may
// otherwise not be scheduled until the work is already done). The
// returned stop cuts the CPU capture short, waits until the cycle has
// written its artifacts and rotated, and returns the cycle's error;
// calling it again returns the same error. On a nil profiler Around
// starts nothing and stop returns nil.
func (p *Profiler) Around(ctx context.Context) (stop func() error) {
	if p == nil {
		return func() error { return nil }
	}
	ctx, cancel := context.WithCancel(ctx)
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- p.cycle(ctx, started) }()
	<-started
	return sync.OnceValue(func() error {
		cancel()
		return <-done
	})
}

// cycle is Cycle with a start signal: started (when non-nil) is closed
// as soon as the CPU capture is live — or immediately when it cannot
// start.
func (p *Profiler) cycle(ctx context.Context, started chan<- struct{}) error {
	if p == nil {
		if started != nil {
			close(started)
		}
		return nil
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		if started != nil {
			close(started)
		}
		return fmt.Errorf("prof: profiler closed")
	}
	seq := p.seq
	p.seq++
	p.mu.Unlock()

	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	cpuPath, cpuBytes, err := p.captureCPU(ctx, seq, started)
	keep(err)
	keep(p.captureLookup("heap", seq))
	keep(p.captureLookup("goroutine", seq))
	// Mutex and block profiles are empty unless their runtime rates were
	// set (telemetry.SetProfileRates); capturing the empty profile is
	// still cheap and keeps the artifact set uniform.
	keep(p.captureLookup("mutex", seq))
	keep(p.captureLookup("block", seq))
	keep(p.rotate())

	p.mu.Lock()
	p.cycles++
	p.lastErr = firstErr
	if cpuPath != "" {
		p.lastCPU = cpuPath
		p.lastCPUBytes = cpuBytes
	}
	p.mu.Unlock()
	return firstErr
}

// captureCPU runs one CPU profile of the configured duration, cut short
// if ctx is cancelled, and returns the artifact path and size. started
// (when non-nil) is closed once profiling is live or has failed to
// start.
func (p *Profiler) captureCPU(ctx context.Context, seq uint64, started chan<- struct{}) (string, int64, error) {
	var buf bytes.Buffer
	err := pprof.StartCPUProfile(&buf)
	if started != nil {
		close(started)
	}
	if err != nil {
		// Another CPU profile is active (e.g. a /debug/pprof/profile
		// request); skip this cycle's CPU capture rather than fight it.
		return "", 0, fmt.Errorf("prof: cpu: %w", err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(p.cfg.CPUDuration):
	}
	pprof.StopCPUProfile()
	path := p.artifactPath("cpu", seq)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return "", 0, fmt.Errorf("prof: cpu: %w", err)
	}
	p.mu.Lock()
	p.captures++
	p.mu.Unlock()
	return path, int64(buf.Len()), nil
}

// captureLookup snapshots one named runtime profile. The heap profile is
// written as the allocation profile (WriteTo debug 0 emits both
// alloc_space and inuse_space columns) so consecutive captures can be
// diffed into delta-heap tables.
func (p *Profiler) captureLookup(kind string, seq uint64) error {
	prof := pprof.Lookup(kind)
	if prof == nil {
		return fmt.Errorf("prof: unknown profile %q", kind)
	}
	var buf bytes.Buffer
	if err := prof.WriteTo(&buf, 0); err != nil {
		return fmt.Errorf("prof: %s: %w", kind, err)
	}
	if err := os.WriteFile(p.artifactPath(kind, seq), buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("prof: %s: %w", kind, err)
	}
	p.mu.Lock()
	p.captures++
	p.mu.Unlock()
	return nil
}

func (p *Profiler) artifactPath(kind string, seq uint64) string {
	return filepath.Join(p.cfg.Dir, fmt.Sprintf("%s-%s-%06d.pprof", filePrefix, kind, seq))
}

// rotate deletes the oldest artifacts until retained bytes fit under
// MaxBytes. Artifact names embed a monotonic sequence number, so
// lexicographic order is age order — no mtime trust needed.
func (p *Profiler) rotate() error {
	ents, err := os.ReadDir(p.cfg.Dir)
	if err != nil {
		return fmt.Errorf("prof: rotate: %w", err)
	}
	type art struct {
		name string
		size int64
	}
	var arts []art
	var total int64
	for _, e := range ents {
		if e.IsDir() || !strings.HasPrefix(e.Name(), filePrefix+"-") || !strings.HasSuffix(e.Name(), ".pprof") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		arts = append(arts, art{e.Name(), info.Size()})
		total += info.Size()
	}
	sort.Slice(arts, func(i, j int) bool { return arts[i].name < arts[j].name })
	for _, a := range arts {
		if total <= p.cfg.MaxBytes {
			break
		}
		if err := os.Remove(filepath.Join(p.cfg.Dir, a.name)); err == nil {
			total -= a.size
		}
	}
	p.mu.Lock()
	p.retainedBytes = total
	p.mu.Unlock()
	return nil
}

// Run captures one cycle immediately, then one per Interval until ctx is
// cancelled. A nil profiler returns immediately.
func (p *Profiler) Run(ctx context.Context) {
	if p == nil {
		return
	}
	_ = p.Cycle(ctx)
	t := time.NewTicker(p.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			_ = p.Cycle(ctx)
		}
	}
}

// Close marks the profiler stopped; later Cycle calls fail. Idempotent.
func (p *Profiler) Close() error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	return nil
}

// Status reports the profiler's progress; a nil profiler reports
// Enabled: false.
func (p *Profiler) Status() Status {
	if p == nil {
		return Status{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	st := Status{
		Enabled:        true,
		Dir:            p.cfg.Dir,
		IntervalSec:    p.cfg.Interval.Seconds(),
		CPUDurationSec: p.cfg.CPUDuration.Seconds(),
		Cycles:         p.cycles,
		Captures:       p.captures,
		Bytes:          p.retainedBytes,
		LastCPUPath:    p.lastCPU,
		LastCPUBytes:   p.lastCPUBytes,
	}
	if p.lastErr != nil {
		st.LastErr = p.lastErr.Error()
	}
	return st
}

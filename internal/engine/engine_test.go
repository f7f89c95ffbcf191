package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/geom"
	"repro/internal/obs"
)

func mac(hi, lo byte) dot11.MAC { return dot11.MAC{0, 0, 0, 0, hi, lo} }

// gridWorld builds a synthetic campus: nAPs on a grid with 100 m ranges
// and nDevs devices, each with pairwise records at t=50 naming the APs
// within range of its position.
func gridWorld(nAPs, nDevs int) (core.Knowledge, *obs.Store, []dot11.MAC) {
	var aps []core.APInfo
	side := 1
	for side*side < nAPs {
		side++
	}
	for i := 0; i < nAPs; i++ {
		m := mac(0xA0+byte(i/200), byte(i%200))
		pos := geom.Pt(float64(i%side)*70-350, float64(i/side)*70-350)
		aps = append(aps, core.APInfo{BSSID: m, Pos: pos, MaxRange: 100})
	}
	k := core.NewKnowledge(aps)
	store := obs.NewStore()
	devs := make([]dot11.MAC, nDevs)
	for d := 0; d < nDevs; d++ {
		dev := mac(0xD0+byte(d/200), byte(d%200))
		devs[d] = dev
		// Deterministic pseudo-random device position.
		x := float64((d*7919)%700) - 350
		y := float64((d*104729)%700) - 350
		pos := geom.Pt(x, y)
		seq := uint16(1)
		for _, ap := range aps {
			if ap.Pos.Dist(pos) <= ap.MaxRange {
				store.Ingest(50, dot11.NewProbeResponse(ap.BSSID, dev, "", 1, seq), true)
				seq++
			}
		}
	}
	return k, store, devs
}

func testEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("want error for missing WindowSec")
	}
	e := testEngine(t, Config{WindowSec: 30})
	if e.Localizer().Name() != "m-loc" {
		t.Errorf("default localizer = %q", e.Localizer().Name())
	}
	if e.Store() == nil {
		t.Error("default store missing")
	}
}

// referenceFix is the per-window oracle: the window's Γ straight from
// the store, located by plain M-Loc with no engine, cache or state reuse.
func referenceFix(k core.Knowledge, store *obs.Store, dev dot11.MAC, ts, windowSec float64) (core.Estimate, error) {
	gamma := store.APSetWindow(dev, ts-windowSec/2, ts+windowSec/2)
	if len(gamma) == 0 {
		return core.Estimate{}, core.ErrNoAPs
	}
	return core.MLoc(k, gamma)
}

// referenceTrack fixes every window independently, skipping failures.
func referenceTrack(k core.Knowledge, store *obs.Store, dev dot11.MAC, startSec, endSec, stepSec, windowSec float64) []core.TrackPoint {
	var out []core.TrackPoint
	for i := 0; ; i++ {
		ts := startSec + float64(i)*stepSec
		if ts > endSec {
			return out
		}
		if est, err := referenceFix(k, store, dev, ts, windowSec); err == nil {
			out = append(out, core.TrackPoint{TimeSec: ts, Est: est})
		}
	}
}

func TestFixMatchesTracker(t *testing.T) {
	k, store, devs := gridWorld(60, 10)
	e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30})
	for _, dev := range devs {
		got, gotErr := e.Fix(dev, 50)
		want, wantErr := referenceFix(k, store, dev, 50, 30)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%v: engine err %v, reference err %v", dev, gotErr, wantErr)
		}
		if gotErr == nil && got.Pos != want.Pos {
			t.Fatalf("%v: engine %v, reference %v", dev, got.Pos, want.Pos)
		}
	}
	if _, err := e.Fix(devs[0], 500); !errors.Is(err, core.ErrNoAPs) {
		t.Errorf("empty window: %v", err)
	}
}

// referenceSnapshot is the per-frame oracle: every device of the store
// fixed sequentially by referenceFix, failures omitted.
func referenceSnapshot(k core.Knowledge, store *obs.Store, ts, windowSec float64) map[dot11.MAC]core.Estimate {
	out := make(map[dot11.MAC]core.Estimate)
	for _, dev := range store.Devices() {
		if est, err := referenceFix(k, store, dev, ts, windowSec); err == nil {
			out[dev] = est
		}
	}
	return out
}

// sameFrame reports whether two map frames hold the same devices with
// bit-identical estimates (positions and vertices compared as float bits,
// so -0 and +0 or two NaN payloads would not pass as equal).
func sameFrame(a, b map[dot11.MAC]core.Estimate) bool {
	if len(a) != len(b) {
		return false
	}
	bits := func(p geom.Point) [2]uint64 { return [2]uint64{math.Float64bits(p.X), math.Float64bits(p.Y)} }
	for dev, ea := range a {
		eb, ok := b[dev]
		if !ok || bits(ea.Pos) != bits(eb.Pos) || ea.K != eb.K || ea.Method != eb.Method ||
			len(ea.Vertices) != len(eb.Vertices) {
			return false
		}
		for i := range ea.Vertices {
			if bits(ea.Vertices[i]) != bits(eb.Vertices[i]) {
				return false
			}
		}
	}
	return true
}

// TestSnapshotParallelMatchesSequential pins every fan-out shape — one
// worker, two, and more workers than devices — with the Γ cache off,
// cold and warm, to the sequential per-device APSetWindow + M-Loc
// oracle, bit for bit. The store also holds devices whose fix fails (an
// AP missing from the knowledge, a window with no records), which every
// frame must omit.
func TestSnapshotParallelMatchesSequential(t *testing.T) {
	k, store, devs := gridWorld(80, 50)
	store.Ingest(50, dot11.NewProbeResponse(mac(0xEE, 1), mac(0xDF, 1), "", 1, 1), true)
	store.Ingest(500, dot11.NewProbeResponse(mac(0xA0, 0), mac(0xDF, 2), "", 1, 1), true)
	want := referenceSnapshot(k, store, 50, 30)
	if len(want) == 0 || len(want) >= len(store.Devices()) {
		t.Fatalf("reference located %d of %d devices; the fixture needs both fixes and failures",
			len(want), len(store.Devices()))
	}
	for _, workers := range []int{1, 2, len(devs) + 10} {
		for _, cacheSize := range []int{-1, 0} {
			e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30, Workers: workers, CacheSize: cacheSize})
			for pass := 0; pass < 2; pass++ {
				if got := e.Snapshot(50); !sameFrame(got, want) {
					t.Errorf("workers=%d cache=%d pass %d: frame (%d devices) differs from reference (%d)",
						workers, cacheSize, pass, len(got), len(want))
				}
			}
		}
	}
}

// TestLocateGammaCacheHitAllocs guards the cached fix path: a Γ-cache hit
// builds its key on the stack and looks it up without allocating.
func TestLocateGammaCacheHitAllocs(t *testing.T) {
	k, store, devs := gridWorld(60, 1)
	e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30})
	gamma := store.APSetWindow(devs[0], 35, 65)
	if _, _, _, hit, err := e.locateGamma(gamma, nil); err != nil || hit {
		t.Fatalf("first lookup: hit=%v err=%v", hit, err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, _, _, hit, _ := e.locateGamma(gamma, nil); !hit {
			t.Fatal("cache missed a repeated Γ")
		}
	}); n != 0 {
		t.Errorf("Γ-cache hit made %v allocations, want 0", n)
	}
}

func TestTrackMatchesTrackerAndSkipsGaps(t *testing.T) {
	k, store, devs := gridWorld(60, 3)
	e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30})
	got, err := e.Track(devs[0], 0, 200, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceTrack(k, store, devs[0], 0, 200, 10, 30)
	if len(want) == 0 || len(want) == 21 {
		t.Fatalf("reference track has %d of 21 points; the fixture must have gaps", len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("engine track %d points, reference %d", len(got), len(want))
	}
	if _, err := e.Track(devs[0], 0, 10, 0); err == nil {
		t.Error("want error for zero step")
	}

	// With accumulated stepping, 0.1-second steps drift off the step grid
	// over ten thousand iterations; index-based stepping keeps every
	// timestamp exact.
	fine, err := e.Track(devs[0], 0, 1000, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fine) == 0 {
		t.Fatal("fine-step track produced no points")
	}
	for _, p := range fine {
		nearest := math.Round(p.TimeSec/0.1) * 0.1
		if diff := math.Abs(p.TimeSec - nearest); diff > 1e-9 {
			t.Fatalf("timestamp %v drifted %.2e from the step grid", p.TimeSec, diff)
		}
	}
}

// TestConcurrentIngestWhileSnapshot streams captures into the store while
// snapshots and fixes run — the engine's core concurrency contract, meant
// to run under -race.
func TestConcurrentIngestWhileSnapshot(t *testing.T) {
	for _, workers := range []int{4, 25} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			concurrentIngestWhileSnapshot(t, workers)
		})
	}
}

func concurrentIngestWhileSnapshot(t *testing.T, workers int) {
	k, store, devs := gridWorld(60, 20)
	e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30, Workers: workers})

	const (
		writers         = 3
		framesPerWriter = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ap := mac(0xA0, byte(w))
			for i := 0; i < framesPerWriter; i++ {
				// Mix in out-of-order timestamps to stress the window index.
				ts := float64(40 + (i*13)%30)
				e.Ingest(ts, dot11.NewProbeResponse(ap, devs[i%len(devs)], "", 1, uint16(i)), true)
				if i%64 == 0 {
					runtime.Gosched()
				}
			}
		}(w)
	}
	for i := 0; i < 15; i++ {
		snap := e.Snapshot(50)
		if len(snap) == 0 {
			t.Error("snapshot located nothing mid-stream")
			break
		}
		if _, err := e.Fix(devs[0], 50); err != nil {
			t.Errorf("fix mid-stream: %v", err)
			break
		}
	}
	wg.Wait()
	// After the stream settles, the parallel cached snapshot must agree
	// with the sequential per-device reference over the same store.
	got, want := e.Snapshot(50), referenceSnapshot(k, store, 50, 30)
	if len(want) == 0 {
		t.Fatal("reference snapshot located nothing")
	}
	if !sameFrame(got, want) {
		t.Errorf("settled snapshot (%d devices) differs from sequential reference (%d)",
			len(got), len(want))
	}
}

func TestCacheHitsAndInvalidation(t *testing.T) {
	k, store, devs := gridWorld(60, 4)
	e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30})

	first, err := e.Fix(devs[0], 50)
	if err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.CacheMisses == 0 || s.CacheHits != 0 {
		t.Fatalf("after first fix: %+v", s)
	}
	second, err := e.Fix(devs[0], 50)
	if err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.CacheHits != 1 {
		t.Fatalf("after second fix: %+v", s)
	}
	if first.Pos != second.Pos {
		t.Fatal("cached estimate differs")
	}

	// Shift every AP: the same Γ must now localize elsewhere, so the
	// cache has to be invalidated by the knowledge swap.
	shiftedInfos := k.All()
	for i := range shiftedInfos {
		shiftedInfos[i].Pos = geom.Pt(shiftedInfos[i].Pos.X+500, shiftedInfos[i].Pos.Y)
	}
	e.SetKnowledge(core.NewKnowledge(shiftedInfos))
	third, err := e.Fix(devs[0], 50)
	if err != nil {
		t.Fatal(err)
	}
	if third.Pos == first.Pos {
		t.Fatal("stale estimate served after knowledge update")
	}
	if third.Pos.X-first.Pos.X < 499 {
		t.Fatalf("post-update estimate %v not shifted from %v", third.Pos, first.Pos)
	}
}

// TestCacheRefusesEstimateFromSwappedKnowledge pins exact invalidation
// under concurrency: an estimate whose computation straddles a
// SetKnowledge was made against the old base, so it must not be cached
// into the new generation and served to the next fix of the same Γ.
func TestCacheRefusesEstimateFromSwappedKnowledge(t *testing.T) {
	ap, dev := mac(0xA0, 1), mac(0xD0, 1)
	oldK := core.NewKnowledge([]core.APInfo{{BSSID: ap, Pos: geom.Pt(0, 0), MaxRange: 100}})
	newK := core.NewKnowledge([]core.APInfo{{BSSID: ap, Pos: geom.Pt(500, 0), MaxRange: 100}})
	store := obs.NewStore()
	store.Ingest(50, dot11.NewProbeResponse(ap, dev, "", 1, 1), true)

	// The first Locate blocks until the test has swapped the knowledge;
	// every estimate depends on the knowledge it is handed.
	entered, release := make(chan struct{}), make(chan struct{})
	var first sync.Once
	loc := core.LocalizerFunc{Method: "blocking", Func: func(k core.Knowledge, gamma []dot11.MAC) (core.Estimate, error) {
		first.Do(func() {
			close(entered)
			<-release
		})
		return core.MLoc(k, gamma)
	}}
	e := testEngine(t, Config{Know: oldK, Store: store, WindowSec: 30, Localizer: loc})

	done := make(chan error, 1)
	go func() {
		_, err := e.Fix(dev, 50)
		done <- err
	}()
	<-entered
	e.SetKnowledge(newK)
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	got, err := e.Fix(dev, 50)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.MLoc(newK, []dot11.MAC{ap})
	if err != nil {
		t.Fatal(err)
	}
	if got.Pos != want.Pos {
		t.Fatalf("fix after the swap = %v, want %v from the new base (stale cache entry served)", got.Pos, want.Pos)
	}
}

func TestCacheDisabled(t *testing.T) {
	k, store, devs := gridWorld(60, 2)
	e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30, CacheSize: -1})
	if _, err := e.Fix(devs[0], 50); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Fix(devs[0], 50); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.CacheHits != 0 || s.CacheMisses != 2 {
		t.Fatalf("cache disabled but stats = %+v", s)
	}
}

func TestRefreshKnowledgeTrainsAPRad(t *testing.T) {
	// Positions known, radii withheld: RefreshKnowledge must estimate them
	// from co-observations and swap the trained base in.
	base := core.NewKnowledge([]core.APInfo{
		{BSSID: mac(0xA0, 1), Pos: geom.Pt(-50, 0)},
		{BSSID: mac(0xA0, 2), Pos: geom.Pt(50, 0)},
		{BSSID: mac(0xA0, 3), Pos: geom.Pt(400, 0)},
	})
	e := testEngine(t, Config{
		Know:      base,
		Localizer: core.APRadLocalizer{Cfg: core.APRadConfig{MaxRadius: 150}},
		WindowSec: 30,
	})
	dev := mac(0xD0, 1)
	e.Ingest(10, dot11.NewProbeResponse(mac(0xA0, 1), dev, "", 1, 1), true)
	e.Ingest(11, dot11.NewProbeResponse(mac(0xA0, 2), dev, "", 6, 2), true)

	// Before training the base has no radii, so M-Loc has no usable discs.
	if _, err := e.Fix(dev, 10); err == nil {
		t.Fatal("want failure before radius training")
	}
	if err := e.RefreshKnowledge(); err != nil {
		t.Fatal(err)
	}
	know := e.Knowledge()
	in1, _ := know.Get(mac(0xA0, 1))
	in2, _ := know.Get(mac(0xA0, 2))
	if sum := in1.MaxRange + in2.MaxRange; sum < 100-1e-6 {
		t.Fatalf("trained radii sum %v < co-observation distance", sum)
	}
	est, err := e.Fix(dev, 10)
	if err != nil {
		t.Fatal(err)
	}
	if est.Method != "ap-rad" {
		t.Errorf("method = %q", est.Method)
	}
	if est.Pos.Dist(geom.Pt(0, 0)) > 60 {
		t.Errorf("estimate %v far from co-observed midpoint", est.Pos)
	}
}

func TestRefreshKnowledgeNoopWithoutTrainer(t *testing.T) {
	k, store, _ := gridWorld(10, 1)
	e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30})
	if err := e.RefreshKnowledge(); err != nil {
		t.Fatal(err)
	}
	if !e.Knowledge().Equal(k) {
		t.Error("no-op refresh changed the knowledge")
	}
}

func TestResetObservations(t *testing.T) {
	k, store, devs := gridWorld(60, 2)
	e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30})
	if _, err := e.Fix(devs[0], 50); err != nil {
		t.Fatal(err)
	}
	e.ResetObservations()
	if n := e.Store().Len(); n != 0 {
		t.Fatalf("store has %d records after reset", n)
	}
	if _, err := e.Fix(devs[0], 50); !errors.Is(err, core.ErrNoAPs) {
		t.Errorf("fix after reset: %v", err)
	}
}

func TestResetObservationsKeepsShardCount(t *testing.T) {
	k, _, _ := gridWorld(10, 1)
	e := testEngine(t, Config{Know: k, Store: obs.NewStoreShards(8), WindowSec: 30})
	e.ResetObservations()
	if got := e.Store().ShardCount(); got != 8 {
		t.Fatalf("shard count after reset = %d, want 8", got)
	}
}

func TestGammaCacheEviction(t *testing.T) {
	c := newGammaCache(4)
	for i := 0; i < 4; i++ {
		c.put(fmt.Appendf(nil, "k%d", i), 0, core.Estimate{K: i}, nil)
	}
	if c.len() != 4 {
		t.Fatalf("len = %d", c.len())
	}
	c.put([]byte("overflow"), 0, core.Estimate{}, nil)
	if c.len() != 1 {
		t.Fatalf("eviction kept %d entries, want wholesale refill", c.len())
	}
	if _, _, ok := c.get([]byte("overflow"), 0); !ok {
		t.Error("new entry missing after eviction")
	}
}

func TestGammaKeyCanonical(t *testing.T) {
	a := []dot11.MAC{mac(0, 1), mac(0, 2)}
	b := []dot11.MAC{mac(0, 1), mac(0, 2)}
	if !bytes.Equal(gammaKey(nil, a), gammaKey(nil, b)) {
		t.Error("identical Γ produced different keys")
	}
	if bytes.Equal(gammaKey(nil, a), gammaKey(nil, a[:1])) {
		t.Error("different Γ collided")
	}
}

// TestTelemetryCountersTrackCache re-runs the cache-invalidation scenario
// and asserts the process-wide telemetry counters advance in lockstep with
// the engine's own Stats — the exported hit/miss/eviction series must be
// trustworthy before any scaling PR leans on them.
func TestTelemetryCountersTrackCache(t *testing.T) {
	k, store, devs := gridWorld(60, 4)
	e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30})

	base := e.Stats()
	hits0, misses0 := mCacheHits.Value(), mCacheMisses.Value()
	evict0, fixes0 := mCacheEvictions.Value(), mFixes.Value()

	if _, err := e.Fix(devs[0], 50); err != nil { // miss
		t.Fatal(err)
	}
	if _, err := e.Fix(devs[0], 50); err != nil { // hit
		t.Fatal(err)
	}
	shifted := k.All()
	for i := range shifted {
		shifted[i].Pos = geom.Pt(shifted[i].Pos.X+500, shifted[i].Pos.Y)
	}
	e.SetKnowledge(core.NewKnowledge(shifted))    // evicts the one cached entry
	if _, err := e.Fix(devs[0], 50); err != nil { // miss again
		t.Fatal(err)
	}

	s := e.Stats()
	wantHits := s.CacheHits - base.CacheHits
	wantMisses := s.CacheMisses - base.CacheMisses
	wantEvict := s.CacheEvictions - base.CacheEvictions
	wantFixes := s.Fixes - base.Fixes
	if wantHits != 1 || wantMisses != 2 || wantEvict != 1 || wantFixes != 3 {
		t.Fatalf("engine stats delta hits=%d misses=%d evictions=%d fixes=%d",
			wantHits, wantMisses, wantEvict, wantFixes)
	}
	if got := mCacheHits.Value() - hits0; got != wantHits {
		t.Errorf("telemetry hits delta = %d, want %d", got, wantHits)
	}
	if got := mCacheMisses.Value() - misses0; got != wantMisses {
		t.Errorf("telemetry misses delta = %d, want %d", got, wantMisses)
	}
	if got := mCacheEvictions.Value() - evict0; got != wantEvict {
		t.Errorf("telemetry evictions delta = %d, want %d", got, wantEvict)
	}
	if got := mFixes.Value() - fixes0; got != wantFixes {
		t.Errorf("telemetry fixes delta = %d, want %d", got, wantFixes)
	}
}

// TestStatsReportWorkers covers the satellite fix: the resolved pool size
// (after the GOMAXPROCS default) is observable, not silent.
func TestStatsReportWorkers(t *testing.T) {
	e := testEngine(t, Config{WindowSec: 30, Workers: 3})
	if got := e.Stats().Workers; got != 3 {
		t.Fatalf("workers = %d", got)
	}
	auto := testEngine(t, Config{WindowSec: 30})
	if got := auto.Stats().Workers; got != runtime.GOMAXPROCS(0) {
		t.Fatalf("auto workers = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if mWorkers.Value() != float64(runtime.GOMAXPROCS(0)) {
		t.Fatalf("worker gauge = %v", mWorkers.Value())
	}
}

// TestSnapshotTelemetry asserts the snapshot counter and latency histogram
// advance per snapshot.
func TestSnapshotTelemetry(t *testing.T) {
	k, store, _ := gridWorld(30, 5)
	e := testEngine(t, Config{Know: k, Store: store, WindowSec: 30})
	snaps0, lat0 := mSnapshots.Value(), mSnapshotSeconds.Count()
	e.Snapshot(50)
	e.Snapshot(50)
	if got := mSnapshots.Value() - snaps0; got != 2 {
		t.Errorf("snapshot counter delta = %d", got)
	}
	if got := mSnapshotSeconds.Count() - lat0; got != 2 {
		t.Errorf("snapshot latency observations delta = %d", got)
	}
}

package engine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/geom"
	"repro/internal/obs"
)

// lineWalkWorld builds the canonical tracked-device fixture: nAPs on a
// line 30 m apart with 150 m ranges, and one device walking past them so
// the window centred at t = s·30 observes exactly APs s..s+k−1 — a Γ
// sliding by one AP per step.
func lineWalkWorld(nAPs, k int) (core.Knowledge, *obs.Store, dot11.MAC, float64) {
	var aps []core.APInfo
	for i := 0; i < nAPs; i++ {
		aps = append(aps, core.APInfo{
			BSSID:    mac(0xA0, byte(i+1)),
			Pos:      geom.Pt(float64(i)*30, 0),
			MaxRange: 150,
		})
	}
	know := core.NewKnowledge(aps)
	store := obs.NewStore()
	dev := mac(0xD0, 1)
	steps := nAPs - k
	seq := uint16(1)
	for s := 0; s <= steps; s++ {
		ts := float64(s) * 30
		for i := s; i < s+k; i++ {
			store.Ingest(ts, dot11.NewProbeResponse(aps[i].BSSID, dev, "", 1, seq), true)
			seq++
		}
	}
	return know, store, dev, float64(steps) * 30
}

func samePoints(t *testing.T, ctx string, got, want []core.TrackPoint) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d track points, want %d", ctx, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.TimeSec != w.TimeSec || g.Est.Pos != w.Est.Pos ||
			g.Est.K != w.Est.K || g.Est.Method != w.Est.Method {
			t.Fatalf("%s: point %d = %+v, want %+v (not bit-equal)", ctx, i, g, w)
		}
		if len(g.Est.Vertices) != len(w.Est.Vertices) {
			t.Fatalf("%s: point %d has %d vertices, want %d", ctx, i,
				len(g.Est.Vertices), len(w.Est.Vertices))
		}
		for v := range g.Est.Vertices {
			if g.Est.Vertices[v] != w.Est.Vertices[v] {
				t.Fatalf("%s: point %d vertex %d = %v, want %v",
					ctx, i, v, g.Est.Vertices[v], w.Est.Vertices[v])
			}
		}
	}
}

// TestTrackIncrementalMatchesFull pins Track, which walks a trajectory
// one window at a time, against fixing every window independently with
// plain M-Loc, bit for bit. The Γ cache is disabled, so every fix runs the
// algorithm. The first Track's points must stay intact across a second
// Track that reuses nothing from the first.
func TestTrackIncrementalMatchesFull(t *testing.T) {
	know, store, dev, endSec := lineWalkWorld(20, 8)
	want := referenceTrack(know, store, dev, 0, endSec, 30, 30)
	if len(want) == 0 {
		t.Fatal("reference track produced no points")
	}
	e := testEngine(t, Config{Know: know, Store: store, WindowSec: 30, CacheSize: -1})
	got, err := e.Track(dev, 0, endSec, 30)
	if err != nil {
		t.Fatal(err)
	}
	samePoints(t, "Track vs per-window M-Loc", got, want)
	again, err := e.Track(dev, 0, endSec, 30)
	if err != nil {
		t.Fatal(err)
	}
	samePoints(t, "first Track after second Track", got, want)
	samePoints(t, "second Track", again, want)
	if st := e.Stats(); st.CacheHits != 0 {
		t.Fatalf("cache hits %d with caching disabled", st.CacheHits)
	}
}

// TestTrackCachedVerticesDetached pins the aliasing contract on the
// cached path: points a caller retains must not share storage with the Γ
// cache or with later fixes, so a cache-filling Track followed by a
// cache-served one leaves both bit-equal to the per-window reference.
func TestTrackCachedVerticesDetached(t *testing.T) {
	know, store, dev, endSec := lineWalkWorld(20, 8)
	want := referenceTrack(know, store, dev, 0, endSec, 30, 30)
	if len(want) == 0 {
		t.Fatal("reference track produced no points")
	}
	cached := testEngine(t, Config{Know: know, Store: store, WindowSec: 30})
	first, err := cached.Track(dev, 0, endSec, 30)
	if err != nil {
		t.Fatal(err)
	}
	second, err := cached.Track(dev, 0, endSec, 30)
	if err != nil {
		t.Fatal(err)
	}
	samePoints(t, "cache-filling Track", first, want)
	samePoints(t, "cache-served Track", second, want)
	if st := cached.Stats(); st.CacheHits == 0 {
		t.Fatalf("second Track hit the cache 0 times: %+v", st)
	}
}

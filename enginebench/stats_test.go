package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample is not NaN")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {39, 0, false}, {40, 75, true}, {99, 75, true},
		{100, 90, true}, {199, 90, true}, {200, 95, true}, {999, 95, true},
		{1000, 99, true}, {9999, 99, true}, {10000, 99.9, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	if percentileName(99.9) != "p99.9" || percentileName(99) != "p99" {
		t.Error("percentile names are not p99 / p99.9")
	}
}

func TestLatencyReportsMedianAndSupportedTail(t *testing.T) {
	m := newMetricSet()
	xs := make([]float64, 150)
	for i := range xs {
		xs[i] = float64(i)
	}
	m.latency("op_ms", xs, "ms")
	want := []string{"op_ms.n", "op_ms.p50", "op_ms.p90"}
	if len(m.names) != len(want) {
		t.Fatalf("names %v, want %v", m.names, want)
	}
	for i, n := range want {
		if m.names[i] != n {
			t.Fatalf("names %v, want %v", m.names, want)
		}
	}
	if err := m.validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadNamesAndUnits(t *testing.T) {
	for _, c := range []struct{ name, unit string }{
		{"has space", "s"}, {"", "s"}, {"_lead", "s"}, {"ok", ""}, {"ok", "a b"},
	} {
		m := newMetricSet()
		m.set(c.name, 1, c.unit)
		if m.validate() == nil {
			t.Errorf("name %q unit %q accepted", c.name, c.unit)
		}
	}
	m := newMetricSet()
	m.set("x", math.NaN(), "s")
	if m.validate() == nil {
		t.Error("NaN accepted")
	}
}

func TestAttributeAddsUpToWall(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "engine.snapshot", Start: 0, End: 10 * ms, Parent: -1},
		{Name: "core.locate", Start: 2 * ms, End: 6 * ms, Parent: 0},
		{Name: "core.locate", Start: 4 * ms, End: 8 * ms, Parent: 0},
		{Name: "obs.window", Start: 12 * ms, End: 15 * ms, Parent: -1, Replica: true},
		{Name: "capwire.batch", Start: 16 * ms, End: 20 * ms, Parent: -1},
		{Name: "engine.ingest", Start: 17 * ms, End: 18 * ms, Parent: 4},
		// Two concurrent workers of the obs.window replica.
		{Name: "obs.window_worker", Start: 12 * ms, End: 15 * ms, Parent: 3, Replica: true},
		{Name: "obs.window_worker", Start: 12 * ms, End: 14 * ms, Parent: 3, Replica: true},
	}
	b := attribute(spans, 0, 22*ms)
	want := map[string]time.Duration{"engine": 5 * ms, "core": 6 * ms, "capwire": 3 * ms}
	for l, d := range want {
		if b.Layer[l] != d {
			t.Errorf("layer %s = %v, want %v", l, b.Layer[l], d)
		}
	}
	if b.Wall != 19*ms || b.Residue != 5*ms {
		t.Errorf("wall %v residue %v, want 19ms and 5ms", b.Wall, b.Residue)
	}
}

// TestWindowReplicaFansOut runs the window-assembly replica on two
// concurrent workers, as the engine's snapshot does: it covers every
// device once, its workers' spans nest in its root span, and only the
// root's wall time leaves the traced wall and the round time.
func TestWindowReplicaFansOut(t *testing.T) {
	w := tinyWorld(t, 1)
	store := referenceStore(w.Caps)
	lo, hi := w.Slice[0], w.Slice[1]
	var seq, par windowStats
	seq.replica(nil, store, nil, [][2]float64{{lo, hi}}, 1)
	tr := newTracer()
	from := tr.nowOr0()
	wall := par.replica(tr, store, nil, [][2]float64{{lo, hi}}, 2)
	to := tr.nowOr0()
	if par.calls != len(store.Devices()) || par.calls != seq.calls || par.gammaSum != seq.gammaSum || par.nonEmpty != seq.nonEmpty {
		t.Errorf("two workers saw %+v, one worker %+v, over %d devices", par, seq, len(store.Devices()))
	}
	spans := tr.snapshot()
	if len(spans) != 3 || spans[0].Parent != -1 || !spans[0].Replica {
		t.Fatalf("spans %+v, want a root replica and two workers", spans)
	}
	root := spans[0]
	for _, s := range spans[1:] {
		if s.Parent != 0 || !s.Replica || s.Start < root.Start || s.End > root.End {
			t.Errorf("worker span %+v is not a replica child inside %+v", s, root)
		}
	}
	if wall > root.dur() {
		t.Errorf("returned wall %v exceeds the root span %v", wall, root.dur())
	}
	if b := attribute(spans, from, to); b.Wall != to-from-root.dur() || b.Layer["obs"] != 0 {
		t.Errorf("attributed wall %v obs %v, want %v and 0", b.Wall, b.Layer["obs"], to-from-root.dur())
	}
	o := &outcome{spans: spans}
	if got, want := o.medianRound([]time.Duration{to - from}), to-from-root.dur(); got-want > time.Microsecond || want-got > time.Microsecond {
		t.Errorf("round less replica %v, want %v", got, want)
	}
}

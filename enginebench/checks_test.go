package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/capwire"
	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/lp"
	"repro/internal/obs"
)

func tinyWorld(t *testing.T, hours float64) *world {
	t.Helper()
	w, err := buildWorld(tinyScenario(hours), 11)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWireCheckCatchesDroppedFrame drops one frame on its way into the
// engine: both the books and the store digest must notice.
func TestWireCheckCatchesDroppedFrame(t *testing.T) {
	w := tinyWorld(t, 1)
	sent := uint64(len(w.Caps))
	ok := capwire.Totals{AccountingOk: true, FramesIngested: sent}

	full, err := engine.New(engine.Config{WindowSec: windowSec})
	if err != nil {
		t.Fatal(err)
	}
	full.IngestCaptures(w.Caps)
	good, err := storeDigest(full.Store())
	if err != nil {
		t.Fatal(err)
	}
	if err := checkWire(w.Caps, sent, ok, good); err != nil {
		t.Fatalf("clean run rejected: %v", err)
	}

	dropped, _ := engine.New(engine.Config{WindowSec: windowSec})
	drop := len(w.Caps) / 2
	dropped.IngestCaptures(w.Caps[:drop])
	dropped.IngestCaptures(w.Caps[drop+1:])
	bad, err := storeDigest(dropped.Store())
	if err != nil {
		t.Fatal(err)
	}
	if err := checkWire(w.Caps, sent, ok, bad); err == nil {
		t.Error("a dropped frame passed the store digest check")
	}
	short := ok
	short.FramesIngested--
	if err := checkWire(w.Caps, sent, short, good); err == nil {
		t.Error("a dropped frame passed the accounting check")
	}
}

// TestLiveMapCheckCatchesPerturbedEstimate moves one estimate of a frame
// and of a track by one ulp.
func TestLiveMapCheckCatchesPerturbedEstimate(t *testing.T) {
	w := tinyWorld(t, 1)
	eng, err := engine.New(engine.Config{Know: w.Know, WindowSec: windowSec})
	if err != nil {
		t.Fatal(err)
	}
	eng.IngestCaptures(w.Caps)
	at := w.Slice[1] - windowSec/2
	frame := eng.Snapshot(at)
	f := []sampledFrame{{start: at - windowSec/2, end: at + windowSec/2, frame: frame}}
	if len(frame) == 0 {
		t.Fatal("empty frame")
	}
	ref := referenceStore(w.Caps)
	if _, err := checkFrames(ref, w.Know, f, w.TruthAt); err != nil {
		t.Fatalf("clean frame rejected: %v", err)
	}
	for d, est := range frame {
		est.Pos.X = math.Nextafter(est.Pos.X, math.Inf(1))
		frame[d] = est
		break
	}
	if _, err := checkFrames(ref, w.Know, f, w.TruthAt); err == nil {
		t.Error("a perturbed frame estimate passed")
	}

	end := w.Slice[1]
	active := w.activeWalkers(end-trackSpanSec, end)
	if len(active) == 0 {
		t.Fatal("no active walker")
	}
	pts, err := eng.Track(active[0], end-trackSpanSec, end, trackStepSec)
	if err != nil || len(pts) == 0 {
		t.Fatalf("track: %d points, %v", len(pts), err)
	}
	tracks := []sampledTrack{{dev: active[0], start: end - trackSpanSec, end: end, ingested: math.Inf(1), points: pts}}
	if err := checkTracks(ref, w.Know, tracks); err != nil {
		t.Fatalf("clean track rejected: %v", err)
	}
	pts[len(pts)-1].Est.Pos.Y = math.Nextafter(pts[len(pts)-1].Est.Pos.Y, 0)
	if err := checkTracks(ref, w.Know, tracks); err == nil {
		t.Error("a perturbed track estimate passed")
	}
}

// TestAPRadCheckCatchesViolations breaks one kept radius constraint, one
// radius bound and the LP objective in turn.
func TestAPRadCheckCatchesViolations(t *testing.T) {
	w := tinyWorld(t, 1)
	base := withoutRadii(w.Know)
	store := obs.NewStore()
	store.IngestFrames(frameCaptures(w.Caps))
	sets := store.DeviceAPSets()
	trained, diag, err := core.EstimateRadii(base, sets, radCfg)
	if err != nil {
		t.Fatal(err)
	}
	_, pairs, floor := radiusLP(base, sets, radCfg)
	if err := checkRadii(trained, pairs, floor, radCfg.MaxRadius); err != nil {
		t.Fatalf("clean training rejected: %v", err)
	}

	violated := false
	for _, p := range pairs {
		bump := math.Max(p.Bound, floor[p.A]) + 0.5
		if bump > radCfg.MaxRadius {
			continue
		}
		if err := checkRadii(withRadius(trained, p.A, bump), pairs, floor, radCfg.MaxRadius); err == nil || !strings.Contains(err.Error(), "sum") {
			t.Errorf("violated pair %v-%v: %v", p.A, p.B, err)
		}
		violated = true
		break
	}
	if !violated {
		t.Fatal("no pair constraint could be violated within the box")
	}
	if err := checkRadii(withRadius(trained, pairs[0].A, radCfg.MaxRadius+1), pairs, floor, radCfg.MaxRadius); err == nil {
		t.Error("a radius above MaxRadius passed")
	}

	// The objective check runs on a real first round.
	eng, err := engine.New(engine.Config{Know: base, Localizer: core.APRadLocalizer{Cfg: radCfg}, WindowSec: windowSec})
	if err != nil {
		t.Fatal(err)
	}
	eng.IngestCaptures(w.Caps)
	if err := eng.RefreshKnowledge(); err != nil {
		t.Fatal(err)
	}
	end := w.Slice[1]
	h := trainedHour{end: end, know: eng.Knowledge(), objective: eng.LastTraining().Objective,
		cold: sampledFrame{start: end - 3600, end: end, frame: eng.SnapshotRange(end-3600, end)}}
	if err := checkAPRad(w, base, []trainedHour{h}); err != nil {
		t.Fatalf("clean retrain rejected: %v", err)
	}
	if diag.Objective != h.objective {
		t.Errorf("engine objective %v, EstimateRadii %v", h.objective, diag.Objective)
	}
	h.objective *= 1 + 1e-5
	if err := checkAPRad(w, base, []trainedHour{h}); err == nil {
		t.Error("a wrong LP objective passed")
	}

	// A solver under check that stops at a feasible but suboptimal point
	// and reports that point's objective: the reference optimum with one
	// radius lowered by a metre, and the origin (the simplex's start).
	prob, _, _ := radiusLP(base, sets, radCfg)
	x, opt, err := refMaximize(prob)
	if err != nil {
		t.Fatal(err)
	}
	lowered := append([]float64(nil), x...)
	for i := range lowered {
		if lowered[i] >= 1 {
			lowered[i]--
			break
		}
	}
	for _, c := range []struct {
		name      string
		x         []float64
		objective float64
		want      string
	}{
		{"lowered radius", lowered, opt - 1, "objective"},
		{"origin", make([]float64, len(x)), 0, "objective"},
	} {
		sub := h
		sub.know, sub.objective = repaired(base, c.x, floor), c.objective
		if err := checkAPRad(w, base, []trainedHour{sub}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("suboptimal point (%s) passed or failed for another reason: %v", c.name, err)
		}
	}
}

// TestAPRadCheckCatchesSuboptimalRadii gives the check radii a solver
// reached at a suboptimal point while it reported the optimal objective.
// Three APs 10 m apart on a line, never observed together: the optimum
// of Σ r under rA+rB ≤ 9, rB+rC ≤ 9, rA+rC ≤ 19 is rA = rC = 9, rB = 0.
func TestAPRadCheckCatchesSuboptimalRadii(t *testing.T) {
	macs := []dot11.MAC{{1}, {2}, {3}}
	pairs := []apPair{{A: macs[0], B: macs[1], Bound: 9}, {A: macs[1], B: macs[2], Bound: 9}, {A: macs[0], B: macs[2], Bound: 19}}
	floor := map[dot11.MAC]float64{}
	know := func(r ...float64) core.Knowledge {
		var infos []core.APInfo
		for i, m := range macs {
			infos = append(infos, core.APInfo{BSSID: m, Pos: geom.Point{X: 10 * float64(i)}, MaxRange: r[i]})
		}
		return core.NewKnowledge(infos)
	}
	for _, c := range []struct {
		radii []float64
		best  float64
	}{
		{[]float64{9, 0, 9}, 18},
		{[]float64{9, 0, 8}, 17},
		{[]float64{0, 9, 0}, 9},
	} {
		k := know(c.radii...)
		if err := checkRadii(k, pairs, floor, radCfg.MaxRadius); err != nil {
			t.Fatalf("%v: %v", c.radii, err)
		}
		got, err := bestLPSum(k, pairs, floor)
		if err != nil || math.Abs(got-c.best) > 1e-9 {
			t.Errorf("radii %v: best LP sum %v, %v; want %v", c.radii, got, err, c.best)
		}
	}
	// Radius B at an evidence floor of 4 may hide an LP value of 0.
	floor[macs[1]] = 4
	if got, err := bestLPSum(know(9, 4, 9), pairs, floor); err != nil || math.Abs(got-18) > 1e-9 {
		t.Errorf("floored radius: best LP sum %v, %v; want 18", got, err)
	}
}

// TestRefMaximizeSolvesKnownPrograms pins the reference solver on
// programs with known optima, including a degenerate one.
func TestRefMaximizeSolvesKnownPrograms(t *testing.T) {
	row := func(b float64, coeffs ...float64) lp.Constraint {
		return lp.Constraint{Coeffs: coeffs, Rel: lp.LE, B: b}
	}
	for _, c := range []struct {
		name string
		p    lp.Problem
		want float64
	}{
		{"box", lp.Problem{Objective: []float64{1, 1}, Constraints: []lp.Constraint{
			row(4, 1, 1), row(3, 1, 0), row(3, 0, 1)}}, 4},
		{"triangle of pairs", lp.Problem{Objective: []float64{1, 1, 1}, Constraints: []lp.Constraint{
			row(2, 1, 1, 0), row(2, 0, 1, 1), row(2, 1, 0, 1), row(5, 1, 0, 0), row(5, 0, 1, 0), row(5, 0, 0, 1)}}, 3},
		{"degenerate", lp.Problem{Objective: []float64{2, 3}, Constraints: []lp.Constraint{
			row(0, 1, -1), row(4, 1, 1), row(4, 1, 1), row(2, 0, 1)}}, 10},
	} {
		x, got, err := refMaximize(c.p)
		if err != nil || math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: objective %v, %v; want %v", c.name, got, err, c.want)
			continue
		}
		var sum float64
		for j, v := range x {
			sum += c.p.Objective[j] * v
		}
		if math.Abs(sum-got) > 1e-9 {
			t.Errorf("%s: point %v scores %v, reported %v", c.name, x, sum, got)
		}
	}
}

// repaired is the knowledge training returns for LP point x: each radius
// raised to its evidence floor.
func repaired(base core.Knowledge, x []float64, floor map[dot11.MAC]float64) core.Knowledge {
	all := base.All()
	slot := make(map[dot11.MAC]int, len(x))
	for i, m := range base.MACs() {
		slot[m] = i
	}
	for i := range all {
		all[i].MaxRange = math.Max(x[slot[all[i].BSSID]], floor[all[i].BSSID])
	}
	return core.NewKnowledge(all)
}

func withRadius(k core.Knowledge, ap [6]byte, r float64) core.Knowledge {
	all := k.All()
	for i := range all {
		if all[i].BSSID == ap {
			all[i].MaxRange = r
		}
	}
	return core.NewKnowledge(all)
}

package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/engine"
	"repro/internal/lp"
	"repro/internal/obs"
)

// radCfg is the production AP-Rad configuration (cmd/marauder -algo aprad).
var radCfg = core.APRadConfig{MaxRadius: 160, MaxNeighborConstraints: 12}

// Output-check tolerances for the trained radii.
const (
	radiusTol    = 1e-6 // metres, on every radius bound and kept constraint
	objectiveTol = 1e-6 // relative, on the LP objective
)

// trainedHour is one retrain of the first round, kept for the checks.
type trainedHour struct {
	end       float64 // captures with TimeSec < end were ingested
	know      core.Knowledge
	objective float64
	cold      sampledFrame
}

// runAPRad preloads the store hour by hour. After each hour comes one
// RefreshKnowledge with the production AP-Rad configuration, then one
// map of the hour on the freshly trained knowledge, whose Γ cache is
// empty: a SnapshotRange over the hour, so every device of the fixed
// crowd is on it whatever the seed's traffic timing (a 60 s frame holds
// a seed-dependent half of them). Each round replays the slice into a
// fresh engine.
func runAPRad(w *world, rc runConfig) (*outcome, error) {
	tr := rc.tr
	base := withoutRadii(w.Know)
	lo, hi := w.Slice[0], w.Slice[1]
	var (
		retrainMs, coldMs     []float64
		rounds, cycles        int
		attempted, failed     uint64
		hits, fixes           uint64
		unlocatable           uint64
		eng                   *engine.Engine
		hours                 []trainedHour
		digest                = sha256.New()
		obsReplica, lpReplica time.Duration
		lastInfo              engineTraining
		roundDur              []time.Duration
		win                   windowStats
	)
	start, from := time.Now(), tr.nowOr0()
	for ; rounds == 0 || time.Since(start).Seconds() < rc.seconds; rounds++ {
		r0 := time.Now()
		tr.setRun(rounds)
		loc, counter, err := wrapLocalizer(core.APRadLocalizer{Cfg: radCfg}, tr)
		if err != nil {
			return nil, err
		}
		eng, err = engine.New(engine.Config{Know: base, Localizer: loc, WindowSec: windowSec})
		if err != nil {
			return nil, err
		}
		next, replica, workers := 0, replicaStore(tr), eng.Stats().Workers
		for end := lo + 3600; end <= hi; end += 3600 {
			var d time.Duration
			next, d = ingestUpTo(tr, eng, replica, w.Caps, next, math.Nextafter(end, math.Inf(-1)))
			obsReplica += d

			attempted++
			fellBack := eng.Health().RefreshFallbacks
			id := tr.enter("engine.refresh")
			t0 := time.Now()
			err := eng.RefreshKnowledge()
			retrainMs = append(retrainMs, time.Since(t0).Seconds()*1e3)
			tr.leave(id)
			info := eng.LastTraining()
			if err != nil || info == nil || eng.Health().RefreshFallbacks > fellBack {
				failed++
				continue
			}
			lastInfo = engineTraining{info.Constraints, info.LPIterations}
			if tr != nil {
				o, l := trainReplicas(tr, eng.Store(), base)
				obsReplica += o
				lpReplica += l
			}

			id = tr.enter("engine.snapshot")
			t0 = time.Now()
			frame := eng.SnapshotRange(end-3600, end)
			coldMs = append(coldMs, time.Since(t0).Seconds()*1e3)
			tr.leave(id)
			if tr != nil {
				obsReplica += win.replica(tr, eng.Store(), nil, [][2]float64{{end - 3600, end}}, workers)
			}
			cycles++
			if rounds == 0 {
				trained := eng.Knowledge()
				for _, e := range trained.All() {
					writeFloat(digest, e.MaxRange)
				}
				hashFrame(digest, frame)
				hours = append(hours, trainedHour{end: end, know: trained, objective: info.Objective,
					cold: sampledFrame{start: end - 3600, end: end, frame: frame}})
			}
		}
		st := eng.Stats()
		attempted += st.Fixes
		fixes += st.Fixes
		hits += st.CacheHits
		failed += counter.failed.Load()
		unlocatable += counter.unlocatable.Load()
		roundDur = append(roundDur, time.Since(r0))
	}
	to := tr.nowOr0()

	o := &outcome{e2e: newMetricSet(), layers: newMetricSet(), keep: eng}
	o.attempted, o.failed = attempted, failed
	o.e2e.set("unlocatable", float64(unlocatable), "count")
	digest.Sum(o.digest[:0])
	b := o.traced(tr, from, to)
	o.throughput = float64(cycles) / float64(rounds) / o.medianRound(roundDur).Seconds()
	o.e2e.set("throughput", o.throughput, "1/s")
	o.e2e.latency("op_ms", retrainMs, "ms")
	o.e2e.latency("aux_ms", coldMs, "ms")
	o.e2e.latency("retrain_ms", retrainMs, "ms")
	o.e2e.latency("cold_frame_ms", coldMs, "ms")
	o.e2e.set("rounds", float64(rounds), "count")
	o.checks = checkAPRad(w, base, hours)

	if tr != nil {
		l := o.layers
		ingest, _ := spanStats(o.spans, "engine.ingest")
		refresh, _ := spanStats(o.spans, "engine.refresh")
		snap, _ := spanStats(o.spans, "engine.snapshot")
		train, _ := spanStats(o.spans, "core.train")
		locate, nLocate := spanStats(o.spans, "core.locate")
		apsets, _ := spanStats(o.spans, "obs.device_apsets")
		obsIngest, _ := spanStats(o.spans, "obs.ingest")
		lpSolve, _ := spanStats(o.spans, "lp.solve")
		l.set("engine.ingest_s", ingest.Seconds(), "s")
		l.set("engine.ingest_fps_busy", float64(rounds*len(w.Caps))/ingest.Seconds(), "1/s")
		l.set("engine.refresh_s", refresh.Seconds(), "s")
		l.set("engine.snapshot_s", snap.Seconds(), "s")
		l.set("engine.cache_hit_ratio", float64(hits)/float64(max(fixes, 1)), "ratio")
		l.set("engine.fixes", float64(fixes), "count")
		l.set("obs.ingest_s", obsIngest.Seconds(), "s")
		l.set("obs.device_apsets_s", apsets.Seconds(), "s")
		l.set("obs.window_us", perCallMicros(win.busy, win.calls), "us")
		l.set("obs.gamma_k.mean", float64(win.gammaSum)/float64(max(win.nonEmpty, 1)), "count")
		l.set("obs.records", float64(eng.Stats().ObsRecords), "count")
		l.set("core.train_s", train.Seconds(), "s")
		l.set("core.locate_us", perCallMicros(locate, nLocate), "us")
		l.set("core.locate_calls", float64(nLocate), "count")
		l.set("lp.constraints", float64(lastInfo.constraints), "count")
		l.set("lp.iterations", float64(lastInfo.iterations), "count")
		l.set("lp.solve_s", lpSolve.Seconds(), "s")
		setBudget(l, b, obsReplica, lpReplica)
	}
	return o, nil
}

// engineTraining is the shape of the latest training run.
type engineTraining struct{ constraints, iterations int }

// trainReplicas repeats, outside the timed path, the obs and lp work a
// refresh did inside the engine and core spans: DeviceAPSets over the
// store, and the dense solve of the same radius LP.
func trainReplicas(tr *tracer, store *obs.Store, base core.Knowledge) (obsTime, lpTime time.Duration) {
	id := tr.beginReplica("obs.device_apsets")
	t0 := time.Now()
	sets := store.DeviceAPSets()
	obsTime = time.Since(t0)
	tr.end(id)
	id = tr.beginReplica("bench.prep")
	prob, _, _ := radiusLP(base, sets, radCfg)
	tr.end(id)
	id = tr.beginReplica("lp.solve")
	t0 = time.Now()
	_, _, _ = lp.Solve(prob)
	lpTime = time.Since(t0)
	tr.end(id)
	return obsTime, lpTime
}

// withoutRadii is the AP-Rad training base: true positions, radii
// withheld.
func withoutRadii(k core.Knowledge) core.Knowledge {
	infos := k.All()
	for i := range infos {
		infos[i].MaxRange = 0
	}
	return core.NewKnowledge(infos)
}

// apPair is one pairwise radius constraint rᵢ + rⱼ ≤ Bound between the
// APs at slots I and J of the training base (BSSID order), A and B.
type apPair struct {
	I, J  int
	A, B  dot11.MAC
	Bound float64
}

// radiusLP builds the paper's AP-Rad program from its definition: maximize
// Σ rᵢ subject to rᵢ + rⱼ < dᵢⱼ (as ≤ dᵢⱼ − margin) for every pair of APs
// no device observed together, kept only where it can bind (< 2R) and, per
// AP, only for the cfg.MaxNeighborConstraints nearest such neighbours, and
// 0 ≤ rᵢ ≤ R. It returns the program, its kept pair constraints, and
// each AP's evidence floor: max over the APs it was observed with of
// min(dᵢⱼ/2, R), to which training raises a radius the LP left lower
// (co-observation is evidence; see core.EstimateRadii).
func radiusLP(base core.Knowledge, sets map[dot11.MAC][]dot11.MAC, cfg core.APRadConfig) (lp.Problem, []apPair, map[dot11.MAC]float64) {
	macs := base.MACs()
	n := len(macs)
	slot := make(map[dot11.MAC]int, n)
	pos := make([]struct{ X, Y float64 }, n)
	for i, m := range macs {
		slot[m] = i
		e, _ := base.Get(m)
		pos[i].X, pos[i].Y = e.Pos.X, e.Pos.Y
	}
	co := make(map[[2]int]bool)
	for _, gamma := range sets {
		var ids []int
		for _, m := range gamma {
			if i, ok := slot[m]; ok {
				ids = append(ids, i)
			}
		}
		for a := range ids {
			for b := a + 1; b < len(ids); b++ {
				co[[2]int{min(ids[a], ids[b]), max(ids[a], ids[b])}] = true
			}
		}
	}
	var pairs []apPair
	floor := make(map[dot11.MAC]float64, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := math.Hypot(pos[i].X-pos[j].X, pos[i].Y-pos[j].Y)
			if co[[2]int{i, j}] {
				half := math.Min(d/2, cfg.MaxRadius)
				floor[macs[i]] = math.Max(floor[macs[i]], half)
				floor[macs[j]] = math.Max(floor[macs[j]], half)
				continue
			}
			b := d - 1
			if b > 0 && b < 2*cfg.MaxRadius {
				pairs = append(pairs, apPair{I: i, J: j, A: macs[i], B: macs[j], Bound: b})
			}
		}
	}
	if cap := cfg.MaxNeighborConstraints; cap > 0 {
		sort.Slice(pairs, func(a, b int) bool { return pairs[a].Bound < pairs[b].Bound })
		per := make([]int, n)
		kept := pairs[:0]
		for _, p := range pairs {
			if per[p.I] >= cap && per[p.J] >= cap {
				continue
			}
			per[p.I]++
			per[p.J]++
			kept = append(kept, p)
		}
		pairs = kept
	}
	prob := lp.Problem{Objective: make([]float64, n)}
	for i := range prob.Objective {
		prob.Objective[i] = 1
	}
	row := func(rel lp.Relation, b float64, vars ...int) {
		c := lp.Constraint{Coeffs: make([]float64, n), Rel: rel, B: b}
		for _, v := range vars {
			c.Coeffs[v] = 1
		}
		prob.Constraints = append(prob.Constraints, c)
	}
	for _, p := range pairs {
		row(lp.LE, p.Bound, p.I, p.J)
	}
	for i := 0; i < n; i++ {
		row(lp.LE, cfg.MaxRadius, i)
	}
	return prob, pairs, floor
}

// checkAPRad verifies every retrain of the first round: the engine's LP
// objective matches the optimum the benchmark's own solver (refMaximize)
// finds for the reference program, the trained radii pass checkRadii
// and can have come from an LP point that reaches it (bestLPSum), and
// the cold map equals a sequential, cache-off AP-Rad localization over
// the same hour.
func checkAPRad(w *world, base core.Knowledge, hours []trainedHour) error {
	if len(hours) == 0 {
		return errors.New("aprad: no retrain to check")
	}
	next := 0
	ref := obs.NewStore()
	for _, h := range hours {
		j := next
		for j < len(w.Caps) && w.Caps[j].TimeSec < h.end {
			j++
		}
		ref.IngestFrames(frameCaptures(w.Caps[next:j]))
		next = j
		prob, pairs, floor := radiusLP(base, ref.DeviceAPSets(), radCfg)
		_, obj, err := refMaximize(prob)
		if err != nil {
			return fmt.Errorf("aprad: reference LP: %w", err)
		}
		tol := objectiveTol * math.Max(1, math.Abs(obj))
		if math.Abs(h.objective-obj) > tol {
			return fmt.Errorf("aprad: hour ending %.0f: objective %.9g, reference %.9g", h.end, h.objective, obj)
		}
		if err := checkRadii(h.know, pairs, floor, radCfg.MaxRadius); err != nil {
			return fmt.Errorf("aprad: hour ending %.0f: %w", h.end, err)
		}
		best, err := bestLPSum(h.know, pairs, floor)
		if err != nil {
			return fmt.Errorf("aprad: hour ending %.0f: %w", h.end, err)
		}
		if best < obj-tol {
			return fmt.Errorf("aprad: hour ending %.0f: trained radii come from an LP point of at most %.9g, reference optimum %.9g", h.end, best, obj)
		}
		if err := checkFrame(ref, h.know, core.APRadLocalizer{Cfg: radCfg}, h.cold, nil); err != nil {
			return fmt.Errorf("aprad: cold map: %w", err)
		}
	}
	return nil
}

// bestLPSum is the largest Σ rᵢ of an LP point the trained radii can
// have come from. A radius above its evidence floor is its LP value; one
// at its floor had an LP value somewhere in [0, floor], so those range
// over that interval under the kept pair constraints, with the other
// radii fixed. Below the optimum, the training solved to a suboptimal
// point. The radii must already have passed checkRadii.
func bestLPSum(know core.Knowledge, pairs []apPair, floor map[dot11.MAC]float64) (float64, error) {
	var fixed float64
	free := make(map[dot11.MAC]int)
	var prob lp.Problem
	row := func(b float64, vars ...int) {
		c := lp.Constraint{Coeffs: make([]float64, len(free)), Rel: lp.LE, B: math.Max(b, 0)}
		for _, v := range vars {
			c.Coeffs[v] = 1
		}
		prob.Constraints = append(prob.Constraints, c)
	}
	for _, e := range know.All() {
		if e.MaxRange > floor[e.BSSID]+radiusTol {
			fixed += e.MaxRange
		} else {
			free[e.BSSID] = len(free)
		}
	}
	for _, e := range know.All() {
		if i, ok := free[e.BSSID]; ok {
			row(floor[e.BSSID], i)
		}
	}
	for _, p := range pairs {
		i, freeA := free[p.A]
		j, freeB := free[p.B]
		switch {
		case freeA && freeB:
			row(p.Bound, i, j)
		case freeA:
			b, _ := know.Get(p.B)
			row(p.Bound-b.MaxRange, i)
		case freeB:
			a, _ := know.Get(p.A)
			row(p.Bound-a.MaxRange, j)
		}
	}
	prob.Objective = make([]float64, len(free))
	for i := range prob.Objective {
		prob.Objective[i] = 1
	}
	_, best, err := refMaximize(prob)
	if err != nil {
		return 0, fmt.Errorf("LP points under the trained radii: %w", err)
	}
	return fixed + best, nil
}

// checkRadii verifies the trained radii: each lies in [0, maxRadius]
// and at or above its evidence floor, and every kept pair constraint
// holds for the LP part of the radii. A radius training raised to its
// floor carries an LP value somewhere in [0, floor], so it counts as 0
// there; any other radius is its LP value.
func checkRadii(know core.Knowledge, pairs []apPair, floor map[dot11.MAC]float64, maxRadius float64) error {
	for _, e := range know.All() {
		if !(e.MaxRange >= -radiusTol && e.MaxRange <= maxRadius+radiusTol) {
			return fmt.Errorf("radius of %v is %v, outside [0, %v]", e.BSSID, e.MaxRange, maxRadius)
		}
		if e.MaxRange < floor[e.BSSID]-radiusTol {
			return fmt.Errorf("radius of %v is %v, below its co-observation floor %v", e.BSSID, e.MaxRange, floor[e.BSSID])
		}
	}
	lpPart := func(m dot11.MAC) (float64, bool) {
		e, ok := know.Get(m)
		if !ok || e.MaxRange <= floor[m]+radiusTol {
			return 0, ok
		}
		return e.MaxRange, true
	}
	for _, p := range pairs {
		a, okA := lpPart(p.A)
		b, okB := lpPart(p.B)
		if !okA || !okB {
			return fmt.Errorf("trained knowledge lacks %v or %v", p.A, p.B)
		}
		if a+b > p.Bound+radiusTol {
			return fmt.Errorf("radii of %v and %v sum to %v, above %v", p.A, p.B, a+b, p.Bound)
		}
	}
	return nil
}

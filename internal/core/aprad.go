package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/apdb"
	"repro/internal/dot11"
	"repro/internal/geom"
)

// APRadConfig tunes the AP-Rad radius estimation.
type APRadConfig struct {
	// MaxRadius bounds every estimated radius (the theoretical upper bound
	// on AP transmission distance). Required, finite and positive: without
	// it the LP that maximizes Σ rᵢ is unbounded.
	MaxRadius float64
	// Margin is the slack ε used to encode the strict constraint
	// rᵢ + rⱼ < dᵢⱼ as rᵢ + rⱼ ≤ dᵢⱼ − ε. Must be finite; ≤ 0 selects the
	// default of 1 metre.
	Margin float64
	// MaxNeighborConstraints caps, per AP, how many "never co-observed"
	// constraints are kept (the nearest neighbours, whose constraints are
	// tightest): a row rᵢ + rⱼ ≤ b is kept iff it is among the first
	// MaxNeighborConstraints rows of APᵢ or of APⱼ in the order (b, i, j).
	// 0 keeps all of them — exact but quadratic in the AP count; a
	// negative cap is an error.
	MaxNeighborConstraints int
}

func (c APRadConfig) withDefaults() (APRadConfig, error) {
	if !(c.MaxRadius > 0) || math.IsInf(c.MaxRadius, 1) {
		return c, fmt.Errorf("core: AP-Rad needs a finite MaxRadius > 0, got %v", c.MaxRadius)
	}
	if math.IsNaN(c.Margin) || math.IsInf(c.Margin, 0) {
		return c, fmt.Errorf("core: AP-Rad needs a finite Margin, got %v", c.Margin)
	}
	if c.MaxNeighborConstraints < 0 {
		return c, fmt.Errorf("core: AP-Rad needs MaxNeighborConstraints >= 0 (0 keeps all), got %d",
			c.MaxNeighborConstraints)
	}
	if c.Margin <= 0 {
		c.Margin = 1
	}
	return c, nil
}

// APRadDiagnostics reports how the radius estimation went.
type APRadDiagnostics struct {
	// Constraints is the number of rows the LP solved: pair rows left
	// after presolve and one box row per AP.
	Constraints int
	// LPIterations is the number of solver steps the solve took: one per
	// AP for its bound, one per greedy match and one per matching search
	// — the cost side of the training provenance.
	LPIterations int
	// LowerBoundViolations counts co-observed pairs whose rᵢ + rⱼ ≥ dᵢⱼ
	// constraint the maximized solution violates — evidence of inconsistent
	// observations (e.g. a device heard two APs that the never-co-observed
	// constraints force apart).
	LowerBoundViolations int
	// Objective is Σ rᵢ at the optimum.
	Objective float64
}

// EstimateRadii is the radius-estimation half of the paper's AP-Rad
// algorithm. Given AP locations and the observed per-device AP sets
// {Γ_k}, it builds the paper's constraint system
//
//	rᵢ + rⱼ ≥ dᵢⱼ  if some device observed APᵢ and APⱼ together,
//	rᵢ + rⱼ < dᵢⱼ  otherwise,
//
// and maximizes Σ rᵢ by linear programming (overestimates are preferred
// over underestimates — Theorem 3). It returns a copy of the knowledge
// base with MaxRange filled in.
//
// Constraints that cannot bind are pruned: a "never co-observed" pair with
// dᵢⱼ ≥ 2·MaxRadius is implied by the box bounds, and presolve drops the
// pair rows the other kept rows imply. The co-observed rows are left out
// of the solve and enforced by a repair pass afterwards. The LP left is
// solved exactly as a maximum-weight matching on its bipartite double
// cover (see radMatch).
func EstimateRadii(k Knowledge, deviceSets map[dot11.MAC][]dot11.MAC,
	cfg APRadConfig) (Knowledge, APRadDiagnostics, error) {
	var diag APRadDiagnostics
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Knowledge{}, diag, err
	}
	// Variables are the snapshot's slots, in BSSID-ascending order.
	sn := k.Snapshot()
	n := sn.Len()
	if n == 0 {
		return Knowledge{}, diag, ErrNoAPs
	}
	lowers, uppers := radiusRows(sn, deviceSets, cfg)
	c, uppers := presolve(uppers, n, cfg.MaxRadius)
	diag.Constraints = len(uppers) + n
	m := newRadMatch(uppers, c)
	diag.LPIterations = m.steps
	x := m.radii(c, cfg.MaxRadius)
	for _, r := range x {
		diag.Objective += r
	}

	// Repair pass: a co-observed pair is hard evidence that rᵢ + rⱼ ≥ dᵢⱼ,
	// while a "never co-observed" constraint is only absence of evidence.
	// When the two conflict (the joint system is infeasible), evidence
	// wins: raise both radii of each co-observed pair to at least dᵢⱼ/2
	// (capped at MaxRadius). Underestimated radii would make the very
	// devices that produced the evidence fall outside the intersected
	// region (Theorem 3's collapse), so overestimating here is the right
	// failure mode.
	for _, lb := range lowers {
		half := math.Min(lb.b/2, cfg.MaxRadius)
		x[lb.i] = math.Max(x[lb.i], half)
		x[lb.j] = math.Max(x[lb.j], half)
	}
	for _, lb := range lowers {
		if x[lb.i]+x[lb.j] < lb.b-1e-6 {
			diag.LowerBoundViolations++
		}
	}

	out := make([]APInfo, n)
	for i := range out {
		in := sn.EntryAt(i)
		in.MaxRange = x[i]
		out[i] = in
	}
	return NewKnowledge(out), diag, nil
}

// pairRow is one pairwise row rᵢ + rⱼ against b of the radius program,
// between AP slots i < j.
type pairRow struct {
	i, j int
	b    float64
}

// comparePairRows is the total order (b, i, j) the neighbour cap selects
// by and the kept rows are listed in.
func comparePairRows(x, y pairRow) int {
	switch {
	case x.b < y.b:
		return -1
	case x.b > y.b:
		return 1
	case x.i != y.i:
		return x.i - y.i
	}
	return x.j - y.j
}

// radiusRows gathers the pairwise rows of the radius program over the
// snapshot's slots. lowers are the co-observed pairs at a finite distance
// (b = dᵢⱼ), in pair order. uppers are the kept never-co-observed rows
// (b = dᵢⱼ − ε) that can bind (0 < b < 2·MaxRadius): all of them in pair
// order, or under a cap of k per AP, in (b, i, j) order, those among the
// first k rows of either of their APs. That is the set the greedy cap
// keeps walking every row in (b, i, j) order: an AP still below its cap
// has kept every earlier row of its own.
func radiusRows(sn *apdb.Snapshot, deviceSets map[dot11.MAC][]dot11.MAC,
	cfg APRadConfig) (lowers, uppers []pairRow) {
	n := sn.Len()
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = sn.PosAt(i)
	}
	co := coObserved(sn, deviceSets)
	var top firstRows
	if cfg.MaxNeighborConstraints > 0 {
		top = firstRows{k: cfg.MaxNeighborConstraints,
			rows: make([]pairRow, n*cfg.MaxNeighborConstraints), size: make([]int, n)}
	}
	// A never-co-observed pair at a squared distance of reach2 or more
	// has b ≥ 2·MaxRadius with a relative 1e-9 to spare for rounding, so
	// it is dropped before the square root, as is one that both its APs'
	// capped rows would reject.
	reach2 := (2*cfg.MaxRadius + cfg.Margin) * (2*cfg.MaxRadius + cfg.Margin) * (1 + 1e-9)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			bit := i*n + j
			coObs := co[bit/64]&(1<<(bit%64)) != 0
			if !coObs {
				d2 := pos[i].Dist2(pos[j])
				if d2 >= reach2 || top.k > 0 && top.beyond(i, d2, cfg.Margin) && top.beyond(j, d2, cfg.Margin) {
					continue
				}
			}
			d := pos[i].Dist(pos[j])
			if math.IsNaN(d) || math.IsInf(d, 0) {
				// An AP at a non-finite position says nothing about its
				// neighbours: no constraint and no repair floor, so it
				// cannot poison their radii.
				continue
			}
			if coObs {
				lowers = append(lowers, pairRow{i, j, d})
				continue
			}
			// b ≤ 0: APs (estimated) essentially co-located yet never
			// co-observed; the row would be infeasible over r ≥ 0, so the
			// pair is treated as unreliable. b ≥ 2·MaxRadius: implied by
			// the box bounds.
			b := d - cfg.Margin
			if b <= 0 || b >= 2*cfg.MaxRadius {
				continue
			}
			if top.k == 0 {
				uppers = append(uppers, pairRow{i, j, b})
				continue
			}
			top.offer(i, pairRow{i, j, b})
			top.offer(j, pairRow{i, j, b})
		}
	}
	if top.k == 0 {
		return lowers, uppers
	}
	// Gather every AP's first rows into the front of the slab (a write
	// never passes the read), then list each kept row once in order.
	uppers = top.rows[:0]
	for a, s := range top.size {
		uppers = append(uppers, top.rows[a*top.k:a*top.k+s]...)
	}
	slices.SortFunc(uppers, comparePairRows)
	return lowers, slices.Compact(uppers)
}

// coObserved is the co-observation matrix of the device sets over the
// snapshot's slots, as an n×n bitset: bit i·n+j is set for slots i < j
// some device heard together.
func coObserved(sn *apdb.Snapshot, deviceSets map[dot11.MAC][]dot11.MAC) []uint64 {
	n := sn.Len()
	co := make([]uint64, (n*n+63)/64)
	var ids []int
	for _, gamma := range deviceSets {
		ids = ids[:0]
		for _, m := range gamma {
			if i, ok := sn.Slot(m); ok {
				ids = append(ids, i)
			}
		}
		for a, i := range ids {
			for _, j := range ids[a+1:] {
				bit := min(i, j)*n + max(i, j)
				co[bit/64] |= 1 << (bit % 64)
			}
		}
	}
	return co
}

// firstRows keeps, per AP, its first k rows under (b, i, j), sorted: AP
// a's are rows[a·k : a·k+size[a]].
type firstRows struct {
	k    int
	rows []pairRow
	size []int
}

// beyond reports whether AP a already holds k rows and a pair at the
// squared distance d2 would come after all of them, with a relative
// 1e-9 to spare for rounding: offering it would change nothing.
func (t *firstRows) beyond(a int, d2, margin float64) bool {
	if t.size[a] < t.k {
		return false
	}
	far := t.rows[(a+1)*t.k-1].b + margin
	return d2 > far*far*(1+1e-9)
}

// offer hands AP a one of its rows.
func (t *firstRows) offer(a int, r pairRow) {
	h := t.rows[a*t.k : (a+1)*t.k]
	s := t.size[a]
	if s == t.k {
		if comparePairRows(r, h[s-1]) > 0 {
			return
		}
		s-- // r displaces the last
	} else {
		t.size[a]++
	}
	for ; s > 0 && comparePairRows(r, h[s-1]) < 0; s-- {
		h[s] = h[s-1]
	}
	h[s] = r
}

// presolve drops the pair rows the others imply. Every rⱼ ≥ 0, so each
// radius obeys rᵢ ≤ uᵢ = min(MaxRadius, b over i's rows), and a row with
// uᵢ + uⱼ < b can never bind. The drop is exact: a row attaining some
// uᵢ has b ≤ uᵢ + uⱼ and stays, so every bound the argument uses
// survives it, and the feasible region — hence the optimum — is
// unchanged. It returns the bounds u and the rows kept, in order.
func presolve(rows []pairRow, n int, maxRadius float64) ([]float64, []pairRow) {
	u := make([]float64, n)
	for i := range u {
		u[i] = maxRadius
	}
	for _, r := range rows {
		u[r.i] = min(u[r.i], r.b)
		u[r.j] = min(u[r.j], r.b)
	}
	kept := rows[:0]
	for _, r := range rows {
		if !(u[r.i]+u[r.j] < r.b) {
			kept = append(kept, r)
		}
	}
	return u, kept
}

// MLocInflated runs M-Loc, and on an empty intersection region retries
// with all radii geometrically inflated (steps of 15%) up to maxFactor.
// Pairwise constraints guarantee rᵢ + rⱼ ≥ dᵢⱼ but not a common
// intersection point (Helly needs triples in the plane), so estimated
// radii occasionally leave a device's discs pairwise-touching yet jointly
// empty; Theorem 3 says the safe direction to recover is up.
// The returned estimate's K reports the discs used; the inflation factor
// applied is returned alongside.
func MLocInflated(k Knowledge, gamma []dot11.MAC, maxFactor float64) (Estimate, float64, error) {
	factor := 1.0
	cur := k
	for {
		est, err := MLoc(cur, gamma)
		if err == nil {
			return est, factor, nil
		}
		if !errors.Is(err, ErrEmptyRegion) {
			return Estimate{}, factor, err
		}
		factor *= 1.15
		if factor > maxFactor {
			return Estimate{}, factor, fmt.Errorf("inflated %.2fx: %w", factor, ErrEmptyRegion)
		}
		// MLoc only reads Γ's entries, so the retry knowledge holds just
		// those, re-inflated from the original base each round.
		inflated := make([]APInfo, 0, len(gamma))
		for _, m := range gamma {
			in, ok := k.Get(m)
			if !ok {
				continue
			}
			in.MaxRange *= factor
			inflated = append(inflated, in)
		}
		cur = NewKnowledge(inflated)
	}
}

// APRad is the paper's full AP-Rad algorithm: estimate all AP radii from
// the observed device sets, then locate device target with M-Loc
// (inflating radii if the estimated discs leave an empty region).
func APRad(k Knowledge, deviceSets map[dot11.MAC][]dot11.MAC,
	target dot11.MAC, cfg APRadConfig) (Estimate, error) {
	withRadii, _, err := EstimateRadii(k, deviceSets, cfg)
	if err != nil {
		return Estimate{}, err
	}
	gamma, ok := deviceSets[target]
	if !ok {
		return Estimate{}, fmt.Errorf("core: target %v has no observations: %w",
			target, ErrNoAPs)
	}
	est, _, err := MLocInflated(withRadii, gamma, 4)
	if err != nil {
		return Estimate{}, err
	}
	est.Method = "ap-rad"
	return est, nil
}

// Baselines the paper compares against.

// CentroidBaseline is the prior range-free approach [26]: estimate the
// device position as the centroid of the positions of the APs in Γ. It is
// the baseline the paper shows to be fragile under biased AP distributions
// (Fig 4) and to degrade as k grows (Fig 14).
func CentroidBaseline(k Knowledge, gamma []dot11.MAC) (Estimate, error) {
	pts := k.Positions(gamma)
	if len(pts) == 0 {
		return Estimate{}, ErrNoAPs
	}
	c, err := geom.Centroid(pts)
	if err != nil {
		return Estimate{}, err
	}
	return Estimate{Pos: c, K: len(pts), Method: "centroid"}, nil
}

// ClosestAPBaseline is the "closest AP" approach: position the device at
// one AP of Γ. Real systems pick the AP with the strongest received
// signal; with set-only observations the best available proxy is the AP
// with the smallest known coverage radius (hearing a short-range AP
// constrains the device most). APs with unknown radii are treated as
// largest.
func ClosestAPBaseline(k Knowledge, gamma []dot11.MAC) (Estimate, error) {
	best := APInfo{}
	found := false
	for _, m := range gamma {
		in, ok := k.Get(m)
		if !ok {
			continue
		}
		r := in.MaxRange
		if r <= 0 {
			r = 1e18
		}
		bestR := best.MaxRange
		if bestR <= 0 {
			bestR = 1e18
		}
		if !found || r < bestR {
			best = in
			found = true
		}
	}
	if !found {
		return Estimate{}, ErrNoAPs
	}
	return Estimate{Pos: best.Pos, K: 1, Method: "closest-ap"}, nil
}

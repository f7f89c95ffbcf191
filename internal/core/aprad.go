package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/dot11"
	"repro/internal/geom"
	"repro/internal/lp"
)

// APRadConfig tunes the AP-Rad radius estimation.
type APRadConfig struct {
	// MaxRadius bounds every estimated radius (the theoretical upper bound
	// on AP transmission distance). Required: without it the LP that
	// maximizes Σ rᵢ is unbounded.
	MaxRadius float64
	// Margin is the slack ε used to encode the strict constraint
	// rᵢ + rⱼ < dᵢⱼ as rᵢ + rⱼ ≤ dᵢⱼ − ε. Defaults to 1 metre.
	Margin float64
	// KeepLowerBounds retains the rᵢ + rⱼ ≥ dᵢⱼ constraints inside the LP.
	// They never bind when maximizing Σ rᵢ, so by default they are dropped
	// from the program and verified afterwards, which keeps the simplex
	// phase-1-free and much faster on large AP sets.
	KeepLowerBounds bool
	// MaxNeighborConstraints caps, per AP, how many "never co-observed"
	// constraints are kept (the nearest neighbours, whose constraints are
	// tightest). 0 keeps all of them — exact but quadratic in the AP count.
	MaxNeighborConstraints int
}

func (c APRadConfig) withDefaults() (APRadConfig, error) {
	if c.MaxRadius <= 0 {
		return c, fmt.Errorf("core: AP-Rad needs MaxRadius > 0, got %v", c.MaxRadius)
	}
	if c.Margin <= 0 {
		c.Margin = 1
	}
	return c, nil
}

// APRadDiagnostics reports how the radius estimation went.
type APRadDiagnostics struct {
	// Constraints is the number of pairwise constraints in the program.
	Constraints int
	// LPIterations is the simplex pivot count the solve took (phase 1 and
	// phase 2 combined) — the cost side of the training provenance.
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
// dᵢⱼ ≥ 2·MaxRadius is implied by the box bounds.
func EstimateRadii(k Knowledge, deviceSets map[dot11.MAC][]dot11.MAC,
	cfg APRadConfig) (Knowledge, APRadDiagnostics, error) {
	var diag APRadDiagnostics
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Knowledge{}, diag, err
	}
	// Stable AP ordering: the snapshot's BSSID-ascending slot order.
	sn := k.Snapshot()
	aps := k.MACs()
	idx := make(map[dot11.MAC]int, len(aps))
	for i, m := range aps {
		idx[m] = i
	}
	n := len(aps)
	if n == 0 {
		return Knowledge{}, diag, ErrNoAPs
	}

	// Co-observation matrix from the device sets.
	co := make(map[[2]int]bool)
	for _, gamma := range deviceSets {
		ids := make([]int, 0, len(gamma))
		for _, m := range gamma {
			if i, ok := idx[m]; ok {
				ids = append(ids, i)
			}
		}
		for a := 0; a < len(ids); a++ {
			for b := a + 1; b < len(ids); b++ {
				i, j := ids[a], ids[b]
				if i > j {
					i, j = j, i
				}
				co[[2]int{i, j}] = true
			}
		}
	}

	prob := lp.Problem{Objective: make([]float64, n)}
	for i := range prob.Objective {
		prob.Objective[i] = 1
	}
	addPair := func(i, j int, rel lp.Relation, b float64) {
		c := lp.Constraint{Coeffs: make([]float64, n), Rel: rel, B: b}
		c.Coeffs[i], c.Coeffs[j] = 1, 1
		prob.Constraints = append(prob.Constraints, c)
	}
	type lower struct {
		i, j int
		d    float64
	}
	type upper struct {
		i, j int
		b    float64
	}
	var lowers []lower
	var uppers []upper
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := sn.PosAt(i).Dist(sn.PosAt(j))
			if math.IsNaN(d) || math.IsInf(d, 0) {
				// An AP at a non-finite position says nothing about its
				// neighbours: no constraint and no repair floor, so it
				// cannot poison their radii.
				continue
			}
			if co[[2]int{i, j}] {
				lowers = append(lowers, lower{i, j, d})
				if cfg.KeepLowerBounds {
					addPair(i, j, lp.GE, d)
				}
				continue
			}
			b := d - cfg.Margin
			if b <= 0 {
				// APs (estimated) essentially co-located yet never
				// co-observed: the constraint would be infeasible over
				// r ≥ 0; treat the pair as unreliable and skip it.
				continue
			}
			if b < 2*cfg.MaxRadius {
				// Binding-capable "never co-observed" constraint.
				uppers = append(uppers, upper{i, j, b})
			}
		}
	}
	if maxPer := cfg.MaxNeighborConstraints; maxPer > 0 {
		// Keep, per AP, only the tightest (nearest-neighbour) upper
		// constraints; looser ones almost never bind at the optimum.
		sort.Slice(uppers, func(a, b int) bool { return uppers[a].b < uppers[b].b })
		perAP := make([]int, n)
		kept := uppers[:0]
		for _, u := range uppers {
			if perAP[u.i] >= maxPer && perAP[u.j] >= maxPer {
				continue
			}
			perAP[u.i]++
			perAP[u.j]++
			kept = append(kept, u)
		}
		uppers = kept
	}
	for _, u := range uppers {
		addPair(u.i, u.j, lp.LE, u.b)
	}
	// Box bounds r_i <= MaxRadius.
	for i := 0; i < n; i++ {
		c := lp.Constraint{Coeffs: make([]float64, n), Rel: lp.LE, B: cfg.MaxRadius}
		c.Coeffs[i] = 1
		prob.Constraints = append(prob.Constraints, c)
	}
	diag.Constraints = len(prob.Constraints)

	x, obj, lpStats, err := lp.SolveStats(prob)
	diag.LPIterations = lpStats.Pivots()
	if err != nil {
		return Knowledge{}, diag, fmt.Errorf("ap-rad lp: %w", err)
	}
	diag.Objective = obj

	// Repair pass: a co-observed pair is hard evidence that rᵢ + rⱼ ≥ dᵢⱼ,
	// while a "never co-observed" constraint is only absence of evidence.
	// When the two conflict (the joint system is infeasible), evidence
	// wins: raise both radii of each co-observed pair to at least dᵢⱼ/2
	// (capped at MaxRadius). Underestimated radii would make the very
	// devices that produced the evidence fall outside the intersected
	// region (Theorem 3's collapse), so overestimating here is the right
	// failure mode.
	for _, lb := range lowers {
		half := math.Min(lb.d/2, cfg.MaxRadius)
		x[lb.i] = math.Max(x[lb.i], half)
		x[lb.j] = math.Max(x[lb.j], half)
	}
	for _, lb := range lowers {
		if x[lb.i]+x[lb.j] < lb.d-1e-6 {
			diag.LowerBoundViolations++
		}
	}

	out := make([]APInfo, n)
	for i := range aps {
		in := sn.EntryAt(i)
		in.MaxRange = x[i]
		out[i] = in
	}
	return NewKnowledge(out), diag, nil
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

package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dot11"
	"repro/internal/lp"
)

// matchCase is one radius program for the solver's oracle tests: the
// pair rows radiusRows would hand presolve, over n APs.
type matchCase struct {
	name string
	n    int
	rows []pairRow
}

// uniformRows draws lp_test.go's AP-Rad program shape: n APs uniform on a
// square campus at the production density, a row rᵢ + rⱼ ≤ dᵢⱼ − 1 for
// every pair that can bind (below 2·box), except the pairs closer than
// coObserved, which are co-observed and give no row, all capped at perAP
// rows per AP (0 keeps all).
func uniformRows(rng *rand.Rand, n, perAP int, box, coObserved float64) []pairRow {
	pts := uniformPoints(rng, n, campusHalf(n))
	var rows []pairRow
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := pts[i].Dist(pts[j])
			if b := d - 1; d >= coObserved && b > 0 && b < 2*box {
				rows = append(rows, pairRow{i, j, b})
			}
		}
	}
	return greedyCap(rows, n, perAP)
}

// matchCases are the oracle inputs at MaxRadius 160: lp_test.go's
// program shapes, the reference layouts (exact distance ties, NaN
// positions, co-located never-heard twins) and the realistic campus of
// BenchmarkEstimateRadii up to 800 APs, each under cap 0 and cap 12
// where the uncapped program stays small.
func matchCases() []matchCase {
	const maxRadius = 160
	var cases []matchCase
	for seed := int64(1); seed <= 3; seed++ {
		for _, n := range []int{10, 60, 200} {
			for _, cap := range []int{0, 12} {
				for _, co := range []float64{0, 40} {
					rng := rand.New(rand.NewSource(seed))
					cases = append(cases, matchCase{fmt.Sprintf("uniform/seed%d/n%d/cap%d/co%v", seed, n, cap, co),
						n, uniformRows(rng, n, cap, maxRadius, co)})
				}
			}
		}
	}
	assemble := func(name string, k Knowledge, sets map[dot11.MAC][]dot11.MAC, cap int) matchCase {
		cfg, err := APRadConfig{MaxRadius: maxRadius, MaxNeighborConstraints: cap}.withDefaults()
		if err != nil {
			panic(err)
		}
		_, uppers := radiusRows(k.Snapshot(), sets, cfg)
		return matchCase{fmt.Sprintf("%s/cap%d", name, cap), k.Len(), uppers}
	}
	for _, l := range referenceLayouts() {
		for seed := int64(1); seed <= 4; seed++ {
			infos, sets := l.world(rand.New(rand.NewSource(seed)))
			for _, cap := range []int{0, 12} {
				cases = append(cases, assemble(fmt.Sprintf("%s/seed%d", l.name, seed), NewKnowledge(infos), sets, cap))
			}
		}
	}
	for _, n := range []int{100, 300, 800} {
		k, sets := campusCase(n)
		cases = append(cases, assemble(fmt.Sprintf("campus/n%d", n), k, sets, 12))
		if n <= 100 {
			cases = append(cases, assemble(fmt.Sprintf("campus/n%d", n), k, sets, 0))
		}
	}
	return cases
}

// The matching must reach the simplex's optimum on the same presolved
// rows with a feasible point, and its duals must certify it: feasible,
// and summing to the matching's weight.
func TestRadMatchMatchesSimplex(t *testing.T) {
	const maxRadius = 160
	for _, tc := range matchCases() {
		t.Run(tc.name, func(t *testing.T) {
			c, rows := presolve(slices.Clone(tc.rows), tc.n, maxRadius)
			m := newRadMatch(rows, c)
			x := m.radii(c, maxRadius)
			_, want, _, err := lp.SolveStats(lpProgram(rows, tc.n, maxRadius))
			if err != nil {
				t.Fatal(err)
			}
			obj := 0.0
			for i, r := range x {
				if !(r >= 0 && r <= maxRadius) {
					t.Errorf("r%d = %v, want in [0, %v]", i, r, maxRadius)
				}
				obj += r
			}
			if math.Abs(obj-want) > 1e-9*math.Max(1, math.Abs(want)) {
				t.Errorf("objective %v, simplex %v", obj, want)
			}
			for _, r := range tc.rows {
				if s := x[r.i] + x[r.j]; s > r.b+1e-6 {
					t.Errorf("row %+v: r%d+r%d = %v", r, r.i, r.j, s)
				}
			}
			checkCertificate(t, m, rows, c)
		})
	}
}

// checkCertificate checks that the matching and the duals prove each
// other optimal: y, z ≥ 0, yᵢ + zⱼ ≥ gᵢⱼ on both orientations of every
// row, every matched edge a row of the cover, and Σ(y + z) equal to the
// matching's weight.
func checkCertificate(t *testing.T, m *radMatch, rows []pairRow, c []float64) {
	t.Helper()
	n := len(c)
	gain := make(map[[2]int32]float64)
	for _, r := range rows {
		g := c[r.i] + c[r.j] - r.b
		if g < 0 {
			t.Fatalf("presolved row %+v has gain %v < 0", r, g)
		}
		gain[[2]int32{int32(r.i), int32(r.j)}] = g
		gain[[2]int32{int32(r.j), int32(r.i)}] = g
		for _, e := range [][2]int{{r.i, r.j}, {r.j, r.i}} {
			if s := m.y[e[0]] + m.z[e[1]]; s < g-1e-9 {
				t.Errorf("edge L%d-R%d: y+z = %v below gain %v", e[0], e[1], s, g)
			}
		}
	}
	duals, weight := 0.0, 0.0
	for i := 0; i < n; i++ {
		if m.y[i] < 0 || m.z[i] < 0 {
			t.Errorf("duals y%d = %v, z%d = %v, want >= 0", i, m.y[i], i, m.z[i])
		}
		duals += m.y[i] + m.z[i]
		j := m.mateL[i]
		if j < 0 {
			continue
		}
		if m.mateR[j] != int32(i) {
			t.Fatalf("L%d matched to R%d, which is matched to L%d", i, j, m.mateR[j])
		}
		g, ok := gain[[2]int32{int32(i), j}]
		if !ok {
			t.Fatalf("L%d matched to R%d along no row", i, j)
		}
		weight += g
	}
	if math.Abs(duals-weight) > 1e-9*math.Max(1, weight) {
		t.Errorf("Σ(y+z) = %v, matching weight %v", duals, weight)
	}
}

// Three APs pairwise 100 m apart and never heard together: an odd cycle,
// whose optimum r = 49.5 each is half-integral in the rows' gains.
func TestRadMatchOddCycle(t *testing.T) {
	rows := []pairRow{{0, 1, 99}, {0, 2, 99}, {1, 2, 99}}
	c, rows := presolve(rows, 3, 150)
	m := newRadMatch(rows, c)
	for i, r := range m.radii(c, 150) {
		if r != 49.5 {
			t.Errorf("r%d = %v, want 49.5", i, r)
		}
	}
	checkCertificate(t, m, rows, c)
}

// Training is deterministic: the radii do not depend on the device-set
// map's iteration order, nor on the order of the APs within a set.
func TestEstimateRadiiDeterministic(t *testing.T) {
	k, sets := campusCase(300)
	cfg := APRadConfig{MaxRadius: 160, MaxNeighborConstraints: 12}
	first, _, err := EstimateRadii(k, sets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := first.All()
	devices := make([]dot11.MAC, 0, len(sets))
	for d := range sets {
		devices = append(devices, d)
	}
	for run := 0; run < 5; run++ {
		// A fresh map filled in a shuffled order, with shuffled sets.
		rng := rand.New(rand.NewSource(int64(run)))
		shuffled := make(map[dot11.MAC][]dot11.MAC, len(sets))
		for _, i := range rng.Perm(len(devices)) {
			gamma := slices.Clone(sets[devices[i]])
			rng.Shuffle(len(gamma), func(a, b int) { gamma[a], gamma[b] = gamma[b], gamma[a] })
			shuffled[devices[i]] = gamma
		}
		got, _, err := EstimateRadii(k, shuffled, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range got.All() {
			if w := want[i].MaxRange; math.Float64bits(e.MaxRange) != math.Float64bits(w) {
				t.Fatalf("run %d: radius %d = %v, first run %v", run, i, e.MaxRange, w)
			}
		}
	}
}

package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/dot11"
	"repro/internal/geom"
	"repro/internal/lp"
)

// lineWorld: three APs on a line; device sets establish co-observations.
func lineWorld() (Knowledge, map[dot11.MAC][]dot11.MAC) {
	k := NewKnowledge([]APInfo{
		{BSSID: mac(1), Pos: geom.Pt(0, 0)},
		{BSSID: mac(2), Pos: geom.Pt(100, 0)},
		{BSSID: mac(3), Pos: geom.Pt(300, 0)},
	})
	sets := map[dot11.MAC][]dot11.MAC{
		mac(101): {mac(1), mac(2)}, // co-observes APs 1,2
		mac(102): {mac(2), mac(3)}, // co-observes APs 2,3
	}
	return k, sets
}

func TestEstimateRadiiConstraints(t *testing.T) {
	k, sets := lineWorld()
	out, diag, err := EstimateRadii(k, sets, APRadConfig{MaxRadius: 150})
	if err != nil {
		t.Fatal(err)
	}
	r1 := knownRange(t, out, mac(1))
	r2 := knownRange(t, out, mac(2))
	r3 := knownRange(t, out, mac(3))
	// Co-observed pairs: r1+r2 >= 100, r2+r3 >= 200.
	if r1+r2 < 100-1e-6 {
		t.Errorf("r1+r2 = %v, want >= 100", r1+r2)
	}
	if r2+r3 < 200-1e-6 {
		t.Errorf("r2+r3 = %v, want >= 200", r2+r3)
	}
	// Never co-observed pair (1,3), d=300 > 2*150: pruned, so radii can be
	// driven to the box bound.
	for i, r := range []float64{r1, r2, r3} {
		if r < -1e-9 || r > 150+1e-6 {
			t.Errorf("r%d = %v out of box", i+1, r)
		}
	}
	if diag.LowerBoundViolations != 0 {
		t.Errorf("violations = %d", diag.LowerBoundViolations)
	}
	if diag.Objective <= 0 {
		t.Errorf("objective = %v", diag.Objective)
	}
}

func TestEstimateRadiiNeverCoObservedBinds(t *testing.T) {
	// Two APs 100 m apart never co-observed: r1 + r2 <= 100 - margin.
	k := NewKnowledge([]APInfo{
		{BSSID: mac(1), Pos: geom.Pt(0, 0)},
		{BSSID: mac(2), Pos: geom.Pt(100, 0)},
	})
	sets := map[dot11.MAC][]dot11.MAC{
		mac(101): {mac(1)},
		mac(102): {mac(2)},
	}
	out, _, err := EstimateRadii(k, sets, APRadConfig{MaxRadius: 150, Margin: 2})
	if err != nil {
		t.Fatal(err)
	}
	sum := knownRange(t, out, mac(1)) + knownRange(t, out, mac(2))
	if sum > 98+1e-6 {
		t.Errorf("r1+r2 = %v, want <= 98", sum)
	}
	// Maximization should push the sum to the bound.
	if sum < 98-1e-6 {
		t.Errorf("r1+r2 = %v, want = 98 at the maximum", sum)
	}
}

func TestEstimateRadiiKeepLowerBounds(t *testing.T) {
	// The co-observed rows stay out of the solve. On lineWorld they do not
	// bind at the maximum: the program with them kept reaches the same
	// optimum, and the trained radii satisfy them.
	k, sets := lineWorld()
	cfg := APRadConfig{MaxRadius: 150}
	out, diag, err := EstimateRadii(k, sets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	keep, lowers, _ := referenceProgram(k, sets, cfg, true)
	_, keepObj, _, err := lp.SolveStats(keep)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(diag.Objective-keepObj) > 1e-6 {
		t.Errorf("objective: %v, with lower bounds kept %v", diag.Objective, keepObj)
	}
	if len(keep.Constraints) <= diag.Constraints {
		t.Error("keeping lower bounds should add constraints")
	}
	x := out.All()
	for _, lb := range lowers {
		if s := x[lb.i].MaxRange + x[lb.j].MaxRange; s < lb.b-1e-6 {
			t.Errorf("r%d+r%d = %v, want >= %v", lb.i+1, lb.j+1, s, lb.b)
		}
	}
}

func TestEstimateRadiiValidation(t *testing.T) {
	k, sets := lineWorld()
	if _, _, err := EstimateRadii(k, sets, APRadConfig{}); err == nil {
		t.Error("want error for missing MaxRadius")
	}
	if _, _, err := EstimateRadii(Knowledge{}, sets, APRadConfig{MaxRadius: 100}); !errors.Is(err, ErrNoAPs) {
		t.Errorf("empty knowledge: %v", err)
	}
	// A non-finite Margin would silently drop every never-co-observed
	// row, and a non-finite MaxRadius would fail only inside the solver:
	// both are config errors, as is a negative neighbour cap.
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		cfg  APRadConfig
		want string
	}{
		{APRadConfig{MaxRadius: 150, Margin: nan}, "finite Margin"},
		{APRadConfig{MaxRadius: 150, Margin: inf}, "finite Margin"},
		{APRadConfig{MaxRadius: 150, Margin: -inf}, "finite Margin"},
		{APRadConfig{MaxRadius: nan}, "finite MaxRadius"},
		{APRadConfig{MaxRadius: inf}, "finite MaxRadius"},
		{APRadConfig{MaxRadius: -inf}, "finite MaxRadius"},
		// A negative cap used to act as 0, keeping every row.
		{APRadConfig{MaxRadius: 150, MaxNeighborConstraints: -1}, "MaxNeighborConstraints >= 0"},
		{APRadConfig{MaxRadius: 150, MaxNeighborConstraints: math.MinInt}, "MaxNeighborConstraints >= 0"},
	} {
		_, _, err := EstimateRadii(k, sets, tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "lp") {
			t.Errorf("%+v: err = %v, want a config error naming %q", tc.cfg, err, tc.want)
		}
	}
}

func TestEstimateRadiiInconsistentObservations(t *testing.T) {
	// Device co-observes APs 400 m apart, but MaxRadius is 150: the lower
	// bound r1+r2 >= 400 cannot hold within the box. With dropped lower
	// bounds the LP still solves and reports the violation.
	k := NewKnowledge([]APInfo{
		{BSSID: mac(1), Pos: geom.Pt(0, 0)},
		{BSSID: mac(2), Pos: geom.Pt(400, 0)},
	})
	sets := map[dot11.MAC][]dot11.MAC{mac(101): {mac(1), mac(2)}}
	out, diag, err := EstimateRadii(k, sets, APRadConfig{MaxRadius: 150})
	if err != nil {
		t.Fatal(err)
	}
	if diag.LowerBoundViolations != 1 {
		t.Errorf("violations = %d, want 1", diag.LowerBoundViolations)
	}
	if knownRange(t, out, mac(1)) > 150+1e-6 {
		t.Error("box bound violated")
	}
}

func TestEstimateRadiiNonFinitePositionIsolated(t *testing.T) {
	// AP 3 has a corrupt (NaN) position and is co-observed with the two
	// healthy APs. Its pairs carry no finite distance, so they must add
	// neither a constraint nor a repair floor to its neighbours.
	k := NewKnowledge([]APInfo{
		{BSSID: mac(1), Pos: geom.Pt(0, 0)},
		{BSSID: mac(2), Pos: geom.Pt(100, 0)},
		{BSSID: mac(3), Pos: geom.Pt(math.NaN(), math.NaN())},
	})
	sets := map[dot11.MAC][]dot11.MAC{
		mac(101): {mac(1), mac(2), mac(3)},
		mac(102): {mac(1), mac(3)},
	}
	out, diag, err := EstimateRadii(k, sets, APRadConfig{MaxRadius: 150})
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := knownRange(t, out, mac(1)), knownRange(t, out, mac(2))
	for i, r := range []float64{r1, r2, knownRange(t, out, mac(3))} {
		if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 || r > 150+1e-6 {
			t.Errorf("r%d = %v, want finite in [0, 150]", i+1, r)
		}
	}
	if r1+r2 < 100-1e-6 {
		t.Errorf("r1+r2 = %v, want >= 100", r1+r2)
	}
	if diag.LowerBoundViolations != 0 {
		t.Errorf("violations = %d, want 0", diag.LowerBoundViolations)
	}
}

func TestAPRadEndToEnd(t *testing.T) {
	// A grid of APs with true radius 120; devices scattered across the
	// area produce observation sets under the spherical model; AP-Rad must
	// locate a target device reasonably.
	trueR := 120.0
	var aps []APInfo
	id := byte(1)
	for x := 0.0; x <= 400; x += 100 {
		for y := 0.0; y <= 400; y += 100 {
			aps = append(aps, APInfo{BSSID: mac(id), Pos: geom.Pt(x, y)})
			id++
		}
	}
	k := NewKnowledge(aps)
	commAt := func(p geom.Point) []dot11.MAC {
		var g []dot11.MAC
		for _, in := range aps {
			if in.Pos.Dist(p) <= trueR {
				g = append(g, in.BSSID)
			}
		}
		return g
	}
	sets := map[dot11.MAC][]dot11.MAC{}
	devID := byte(100)
	truths := map[dot11.MAC]geom.Point{}
	for x := 50.0; x <= 350; x += 100 {
		for y := 50.0; y <= 350; y += 100 {
			d := mac(devID)
			sets[d] = commAt(geom.Pt(x, y))
			truths[d] = geom.Pt(x, y)
			devID++
		}
	}
	target := mac(100)
	est, err := APRad(k, sets, target, APRadConfig{MaxRadius: 300})
	if err != nil {
		t.Fatal(err)
	}
	if est.Method != "ap-rad" {
		t.Errorf("method = %q", est.Method)
	}
	errM := Error(est, truths[target])
	if errM > 150 {
		t.Errorf("AP-Rad error = %.1f m, want < 150 m", errM)
	}
	// Unknown target errors.
	if _, err := APRad(k, sets, mac(200), APRadConfig{MaxRadius: 300}); err == nil {
		t.Error("want error for unobserved target")
	}
}

// knownRange fetches an AP's estimated radius, failing the test when the
// AP is missing from the knowledge base.
func knownRange(t *testing.T, k Knowledge, m dot11.MAC) float64 {
	t.Helper()
	in, ok := k.Get(m)
	if !ok {
		t.Fatalf("AP %v missing from knowledge", m)
	}
	return in.MaxRange
}

// apMAC and devMAC number the APs and devices of a generated campus.
func apMAC(i int) dot11.MAC  { return dot11.MAC{0, 0, 0, 0xA0, byte(i >> 8), byte(i)} }
func devMAC(i int) dot11.MAC { return dot11.MAC{0, 0, 0, 0xD0, byte(i >> 8), byte(i)} }

// campusHalf is half the side of a square campus holding n APs at the
// production density, 300 APs on 700 m × 700 m.
func campusHalf(n int) float64 { return 350 * math.Sqrt(float64(n)/300) }

// uniformPoints draws n points uniformly over [−half, half]².
func uniformPoints(rng *rand.Rand, n int, half float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt((rng.Float64()*2-1)*half, (rng.Float64()*2-1)*half)
	}
	return pts
}

// stratifiedPoints draws n points over [−half, half]², one uniform point
// per cell of a near-square grid, cells picked at random: uniform, with
// the same density everywhere.
func stratifiedPoints(rng *rand.Rand, n int, half float64) []geom.Point {
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	rows := (n + cols - 1) / cols
	cw, ch := 2*half/float64(cols), 2*half/float64(rows)
	pts := make([]geom.Point, n)
	for i, c := range rng.Perm(rows * cols)[:n] {
		pts[i] = geom.Pt(-half+(float64(c%cols)+rng.Float64())*cw, -half+(float64(c/cols)+rng.Float64())*ch)
	}
	return pts
}

// gridPoints lays n APs on a square lattice of the given spacing centred
// on the origin, so many AP pairs lie at exactly equal distances.
func gridPoints(n int, spacing float64) []geom.Point {
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(float64(2*(i%cols)-cols)*spacing/2, float64(2*(i/cols)-cols)*spacing/2)
	}
	return pts
}

// trueRanges draws n true AP ranges uniform in [70, 130] m.
func trueRanges(rng *rand.Rand, n int) []float64 {
	ranges := make([]float64, n)
	for i := range ranges {
		ranges[i] = 70 + 60*rng.Float64()
	}
	return ranges
}

// campusWorld puts AP i at aps[i] with true range ranges[i] and a static
// device at each of devices, which hears every AP whose range covers it.
// The knowledge carries positions only.
func campusWorld(aps []geom.Point, ranges []float64, devices []geom.Point) ([]APInfo, map[dot11.MAC][]dot11.MAC) {
	infos := make([]APInfo, len(aps))
	for i, p := range aps {
		infos[i] = APInfo{BSSID: apMAC(i), Pos: p}
	}
	sets := make(map[dot11.MAC][]dot11.MAC, len(devices))
	for d, p := range devices {
		var gamma []dot11.MAC
		for i, q := range aps {
			if q.Dist(p) <= ranges[i] {
				gamma = append(gamma, apMAC(i))
			}
		}
		sets[devMAC(d)] = gamma
	}
	return infos, sets
}

// referenceProgram is the radius program assembled straight from its
// definition: a co-observation map, dense rows, every binding-capable
// never-co-observed pair sorted on (b, i, j) and kept greedily while one
// of its APs is below the cap, and no presolve. With keepLowers the
// co-observed rows rᵢ + rⱼ ≥ dᵢⱼ come first, in pair order. uppers lists
// the kept pair rows in program order.
func referenceProgram(k Knowledge, sets map[dot11.MAC][]dot11.MAC, cfg APRadConfig, keepLowers bool) (prob lp.Problem, lowers, uppers []pairRow) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		panic(err)
	}
	sn := k.Snapshot()
	n := sn.Len()
	co := make(map[[2]int]bool)
	for _, gamma := range sets {
		for _, a := range gamma {
			for _, b := range gamma {
				i, okA := sn.Slot(a)
				j, okB := sn.Slot(b)
				if okA && okB && i < j {
					co[[2]int{i, j}] = true
				}
			}
		}
	}
	prob.Objective = make([]float64, n)
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
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := sn.PosAt(i).Dist(sn.PosAt(j))
			switch {
			case math.IsNaN(d) || math.IsInf(d, 0):
			case co[[2]int{i, j}]:
				lowers = append(lowers, pairRow{i, j, d})
				if keepLowers {
					row(lp.GE, d, i, j)
				}
			case d-cfg.Margin > 0 && d-cfg.Margin < 2*cfg.MaxRadius:
				uppers = append(uppers, pairRow{i, j, d - cfg.Margin})
			}
		}
	}
	uppers = greedyCap(uppers, n, cfg.MaxNeighborConstraints)
	for _, u := range uppers {
		row(lp.LE, u.b, u.i, u.j)
	}
	for i := 0; i < n; i++ {
		row(lp.LE, cfg.MaxRadius, i)
	}
	return prob, lowers, uppers
}

// greedyCap applies the neighbour cap by its definition: rows sorted on
// (b, i, j), each kept while one of its APs has fewer than perAP kept
// rows. perAP 0 keeps every row, in the given order.
func greedyCap(rows []pairRow, n, perAP int) []pairRow {
	if perAP == 0 {
		return rows
	}
	sort.Slice(rows, func(a, b int) bool {
		x, y := rows[a], rows[b]
		if x.b != y.b {
			return x.b < y.b
		}
		if x.i != y.i {
			return x.i < y.i
		}
		return x.j < y.j
	})
	per := make([]int, n)
	kept := rows[:0]
	for _, r := range rows {
		if per[r.i] >= perAP && per[r.j] >= perAP {
			continue
		}
		per[r.i]++
		per[r.j]++
		kept = append(kept, r)
	}
	return kept
}

// lpProgram is the program the matching solves, for the simplex: maximize
// Σ rᵢ subject to the pair rows, as sparse rows, then rᵢ ≤ maxRadius.
func lpProgram(rows []pairRow, n int, maxRadius float64) lp.Problem {
	prob := lp.Problem{Objective: make([]float64, n)}
	for i := range prob.Objective {
		prob.Objective[i] = 1
	}
	ones := []float64{1, 1}
	for _, r := range rows {
		prob.Constraints = append(prob.Constraints, lp.Constraint{Coeffs: ones, Vars: []int{r.i, r.j}, Rel: lp.LE, B: r.b})
	}
	for i := 0; i < n; i++ {
		prob.Constraints = append(prob.Constraints, lp.Constraint{Coeffs: ones[:1], Vars: []int{i}, Rel: lp.LE, B: maxRadius})
	}
	return prob
}

// referenceLayout is one family of training worlds for the differential
// tests: world builds the knowledge and device sets from rng.
type referenceLayout struct {
	name  string
	world func(rng *rand.Rand) ([]APInfo, map[dot11.MAC][]dot11.MAC)
}

// referenceLayouts are small campuses that stress the row assembly and
// the solver: uniform APs, a lattice with many exact distance ties, NaN
// and infinite positions, a crowd in the lens of every overlapping pair,
// and never-heard twins at the positions of heard APs.
func referenceLayouts() []referenceLayout {
	crowd := func(rng *rand.Rand, aps []geom.Point, half float64) ([]APInfo, map[dot11.MAC][]dot11.MAC) {
		return campusWorld(aps, trueRanges(rng, len(aps)), uniformPoints(rng, len(aps)/4, half))
	}
	return []referenceLayout{
		{"uniform", func(rng *rand.Rand) ([]APInfo, map[dot11.MAC][]dot11.MAC) {
			n := 30 + rng.Intn(40)
			return crowd(rng, uniformPoints(rng, n, campusHalf(n)), campusHalf(n))
		}},
		{"grid", func(rng *rand.Rand) ([]APInfo, map[dot11.MAC][]dot11.MAC) {
			n := 36 + rng.Intn(30)
			spacing := []float64{30, 40, 50}[rng.Intn(3)]
			return crowd(rng, gridPoints(n, spacing), spacing*math.Ceil(math.Sqrt(float64(n)))/2)
		}},
		{"nan positions", func(rng *rand.Rand) ([]APInfo, map[dot11.MAC][]dot11.MAC) {
			n := 30 + rng.Intn(40)
			infos, sets := crowd(rng, uniformPoints(rng, n, campusHalf(n)), campusHalf(n))
			// Heard where they stand, but known at a corrupt position.
			for _, i := range rng.Perm(n)[:3] {
				infos[i].Pos = geom.Pt(math.NaN(), math.NaN())
			}
			infos[rng.Intn(n)].Pos.X = math.Inf(1)
			return infos, sets
		}},
		{"lens", func(rng *rand.Rand) ([]APInfo, map[dot11.MAC][]dot11.MAC) {
			// A device in the lens of every pair of overlapping true
			// discs: the pairs heard together are exactly those whose
			// discs meet, so the true radii violate at most the rows
			// within Margin of touching, and the program with the
			// co-observed rows kept is mostly feasible.
			n := 20 + rng.Intn(30)
			aps, ranges := uniformPoints(rng, n, campusHalf(n)), trueRanges(rng, n)
			var lens []geom.Point
			for i := range aps {
				for j := i + 1; j < n; j++ {
					if d := aps[i].Dist(aps[j]); d < ranges[i]+ranges[j] {
						t := (ranges[i] - (ranges[i]+ranges[j]-d)/2) / d
						lens = append(lens, aps[i].Add(aps[j].Sub(aps[i]).Scale(t)))
					}
				}
			}
			return campusWorld(aps, ranges, lens)
		}},
		{"co-located", func(rng *rand.Rand) ([]APInfo, map[dot11.MAC][]dot11.MAC) {
			n := 30 + rng.Intn(40)
			infos, sets := crowd(rng, uniformPoints(rng, n, campusHalf(n)), campusHalf(n))
			// Twins no device heard, at the very positions of heard APs:
			// never co-observed at distance 0.
			for _, i := range rng.Perm(n)[:5] {
				infos = append(infos, APInfo{BSSID: apMAC(len(infos)), Pos: infos[i].Pos})
			}
			return infos, sets
		}},
	}
}

// The sparse, capped-per-AP, presolved assembly must keep exactly the
// reference's rows before presolve, and training must reach the
// reference optimum with a point that satisfies every reference row
// (keep=false). LP optima are not unique, so the point itself may differ
// from the simplex's. The co-observed rows stay out of the solve; the
// repair pass enforces them afterwards (keep=true).
func TestEstimateRadiiMatchesReferenceAssembly(t *testing.T) {
	presolved, feasibleKeep := 0, 0
	for _, l := range referenceLayouts() {
		for seed := int64(1); seed <= 4; seed++ {
			infos, sets := l.world(rand.New(rand.NewSource(seed)))
			k := NewKnowledge(infos)
			for _, cap := range []int{0, 12} {
				cfg := APRadConfig{MaxRadius: 160, MaxNeighborConstraints: cap}
				for _, keep := range []bool{false, true} {
					name := fmt.Sprintf("%s/seed%d/cap%d/keep=%v", l.name, seed, cap, keep)
					t.Run(name, func(t *testing.T) {
						if keep {
							if checkLowerBounds(t, k, sets, cfg) {
								feasibleKeep++
							}
							return
						}
						presolved += checkAgainstReference(t, k, sets, cfg)
					})
				}
			}
		}
	}
	if presolved == 0 || feasibleKeep == 0 {
		t.Errorf("presolve dropped %d rows, %d programs with the lower bounds kept solved; the inputs no longer exercise both",
			presolved, feasibleKeep)
	}
}

// checkAgainstReference runs one differential case against the
// reference program without its co-observed rows. It returns how many
// rows presolve dropped.
func checkAgainstReference(t *testing.T, k Knowledge, sets map[dot11.MAC][]dot11.MAC, cfg APRadConfig) int {
	t.Helper()
	ref, refLowers, refUppers := referenceProgram(k, sets, cfg, false)
	full, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	lowers, uppers := radiusRows(k.Snapshot(), sets, full)
	if fmt.Sprint(lowers) != fmt.Sprint(refLowers) {
		t.Fatalf("co-observed pairs differ: %d vs reference %d", len(lowers), len(refLowers))
	}
	if len(uppers) != len(refUppers) {
		t.Fatalf("kept %d pair rows, reference %d", len(uppers), len(refUppers))
	}
	for i := range uppers {
		if uppers[i] != refUppers[i] {
			t.Fatalf("kept row %d is %+v, reference %+v", i, uppers[i], refUppers[i])
		}
	}

	n := k.Len()
	c, rows := presolve(uppers, n, full.MaxRadius)
	x := newRadMatch(rows, c).radii(c, full.MaxRadius)
	_, refObj, _, err := lp.SolveStats(ref)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	tol := 1e-9 * math.Max(1, math.Abs(refObj))
	obj := 0.0
	for _, v := range x {
		obj += v
	}
	if math.Abs(obj-refObj) > tol {
		t.Errorf("objective %v, reference %v", obj, refObj)
	}
	for i, c := range ref.Constraints {
		s := 0.0
		for j, v := range x {
			s += c.Coeffs[j] * v
		}
		if s > c.B+1e-6 {
			t.Errorf("reference row %d: %v <= %v violated", i, s, c.B)
		}
	}
	for j, v := range x {
		if v < 0 {
			t.Errorf("r%d = %v < 0", j, v)
		}
	}

	trained, diag, err := EstimateRadii(k, sets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(diag.Objective-refObj) > tol || diag.Constraints != len(rows)+n {
		t.Errorf("diagnostics %+v, program %d rows at reference objective %v", diag, len(rows)+n, refObj)
	}
	// Training returns that point, raised by the repair pass.
	for _, lb := range lowers {
		half := math.Min(lb.b/2, full.MaxRadius)
		x[lb.i] = math.Max(x[lb.i], half)
		x[lb.j] = math.Max(x[lb.j], half)
	}
	for i, e := range trained.All() {
		if math.Float64bits(e.MaxRange) != math.Float64bits(x[i]) {
			t.Fatalf("radius %d = %v, solved and repaired %v", i, e.MaxRange, x[i])
		}
	}
	return len(ref.Constraints) - len(rows) - n
}

// checkLowerBounds checks the co-observed rows against training: every
// one within reach of the box holds after the repair pass, the others
// are exactly the reported violations, and where the reference program
// with those rows kept is feasible, its optimum is at most training's,
// as they only shrink the feasible region. It reports whether that
// program was feasible.
func checkLowerBounds(t *testing.T, k Knowledge, sets map[dot11.MAC][]dot11.MAC, cfg APRadConfig) bool {
	t.Helper()
	keep, lowers, _ := referenceProgram(k, sets, cfg, true)
	trained, diag, err := EstimateRadii(k, sets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := trained.All()
	for i, e := range x {
		if !(e.MaxRange >= 0 && e.MaxRange <= cfg.MaxRadius) {
			t.Errorf("r%d = %v, want in [0, %v]", i, e.MaxRange, cfg.MaxRadius)
		}
	}
	beyond := 0
	for _, lb := range lowers {
		s := x[lb.i].MaxRange + x[lb.j].MaxRange
		if lb.b > 2*cfg.MaxRadius+1e-6 {
			beyond++
		} else if s < lb.b-1e-6 {
			t.Errorf("co-observed r%d+r%d = %v, want >= %v", lb.i, lb.j, s, lb.b)
		}
	}
	if diag.LowerBoundViolations != beyond {
		t.Errorf("violations = %d, want the %d co-observed pairs beyond 2·MaxRadius", diag.LowerBoundViolations, beyond)
	}
	_, keepObj, _, err := lp.SolveStats(keep)
	if errors.Is(err, lp.ErrInfeasible) {
		return false
	}
	if err != nil {
		t.Fatalf("reference with lower bounds: %v", err)
	}
	if keepObj > diag.Objective+1e-9*math.Max(1, math.Abs(keepObj)) {
		t.Errorf("objective %v below %v, the optimum with the lower bounds kept", diag.Objective, keepObj)
	}
	return true
}

// campusCase builds BenchmarkEstimateRadii's campus of n APs.
func campusCase(n int) (Knowledge, map[dot11.MAC][]dot11.MAC) {
	rng := rand.New(rand.NewSource(1))
	half := campusHalf(n)
	aps := stratifiedPoints(rng, n, half)
	infos, sets := campusWorld(aps, trueRanges(rng, n), stratifiedPoints(rng, n/15, half))
	return NewKnowledge(infos), sets
}

// BenchmarkEstimateRadii trains the production AP-Rad configuration
// (MaxRadius 160 m, at most 12 neighbour rows per AP) on a stratified
// campus at the production AP density (300 APs on 700 m × 700 m), with
// a static, stratified crowd of one device per 15 APs hearing every AP
// whose true range covers it: the training time as the AP count grows.
// At 300 APs the program has the shape of enginebench's last aprad_retrain
// hour, about 1,300 rows solved.
func BenchmarkEstimateRadii(b *testing.B) {
	cfg := APRadConfig{MaxRadius: 160, MaxNeighborConstraints: 12}
	for _, n := range []int{300, 800, 1600, 3200} {
		b.Run(fmt.Sprintf("aps=%d", n), func(b *testing.B) {
			k, sets := campusCase(n)
			_, diag, err := EstimateRadii(k, sets, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := EstimateRadii(k, sets, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(diag.Constraints), "rows")
			b.ReportMetric(float64(diag.LPIterations), "steps")
		})
	}
}

package lp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func solveOK(t *testing.T, p Problem) ([]float64, float64) {
	t.Helper()
	x, obj, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return x, obj
}

func TestSolveBasicMax(t *testing.T) {
	// max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> x=4, y=0, obj=12.
	p := Problem{
		Objective: []float64{3, 2},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Rel: LE, B: 4},
			{Coeffs: []float64{1, 3}, Rel: LE, B: 6},
		},
	}
	x, obj := solveOK(t, p)
	if math.Abs(obj-12) > 1e-8 {
		t.Errorf("obj = %v, want 12", obj)
	}
	if math.Abs(x[0]-4) > 1e-8 || math.Abs(x[1]) > 1e-8 {
		t.Errorf("x = %v, want [4 0]", x)
	}
}

func TestSolveClassicTwoVar(t *testing.T) {
	// max 5x + 4y s.t. 6x + 4y <= 24, x + 2y <= 6 -> x=3, y=1.5, obj=21.
	p := Problem{
		Objective: []float64{5, 4},
		Constraints: []Constraint{
			{Coeffs: []float64{6, 4}, Rel: LE, B: 24},
			{Coeffs: []float64{1, 2}, Rel: LE, B: 6},
		},
	}
	x, obj := solveOK(t, p)
	if math.Abs(obj-21) > 1e-8 {
		t.Errorf("obj = %v, want 21", obj)
	}
	if math.Abs(x[0]-3) > 1e-8 || math.Abs(x[1]-1.5) > 1e-8 {
		t.Errorf("x = %v, want [3 1.5]", x)
	}
}

func TestSolveWithGE(t *testing.T) {
	// max x + y s.t. x + y <= 10, x >= 3, y >= 2 -> obj 10.
	p := Problem{
		Objective: []float64{1, 1},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Rel: LE, B: 10},
			{Coeffs: []float64{1, 0}, Rel: GE, B: 3},
			{Coeffs: []float64{0, 1}, Rel: GE, B: 2},
		},
	}
	x, obj := solveOK(t, p)
	if math.Abs(obj-10) > 1e-8 {
		t.Errorf("obj = %v, want 10", obj)
	}
	if x[0] < 3-1e-8 || x[1] < 2-1e-8 {
		t.Errorf("x = %v violates lower bounds", x)
	}
}

func TestSolveWithEQ(t *testing.T) {
	// max 2x + y s.t. x + y = 5, x <= 3 -> x=3, y=2, obj=8.
	p := Problem{
		Objective: []float64{2, 1},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Rel: EQ, B: 5},
			{Coeffs: []float64{1, 0}, Rel: LE, B: 3},
		},
	}
	x, obj := solveOK(t, p)
	if math.Abs(obj-8) > 1e-8 {
		t.Errorf("obj = %v, want 8", obj)
	}
	if math.Abs(x[0]+x[1]-5) > 1e-8 {
		t.Errorf("equality violated: %v", x)
	}
}

func TestSolveNegativeRHS(t *testing.T) {
	// max x s.t. -x <= -2 (i.e. x >= 2), x <= 7.
	p := Problem{
		Objective: []float64{1},
		Constraints: []Constraint{
			{Coeffs: []float64{-1}, Rel: LE, B: -2},
			{Coeffs: []float64{1}, Rel: LE, B: 7},
		},
	}
	x, obj := solveOK(t, p)
	if math.Abs(obj-7) > 1e-8 || math.Abs(x[0]-7) > 1e-8 {
		t.Errorf("x=%v obj=%v, want 7", x, obj)
	}
}

func TestSolveInfeasible(t *testing.T) {
	p := Problem{
		Objective: []float64{1},
		Constraints: []Constraint{
			{Coeffs: []float64{1}, Rel: GE, B: 5},
			{Coeffs: []float64{1}, Rel: LE, B: 3},
		},
	}
	if _, _, err := Solve(p); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestSolveUnbounded(t *testing.T) {
	p := Problem{
		Objective: []float64{1, 0},
		Constraints: []Constraint{
			{Coeffs: []float64{0, 1}, Rel: LE, B: 1},
		},
	}
	if _, _, err := Solve(p); !errors.Is(err, ErrUnbounded) {
		t.Errorf("err = %v, want ErrUnbounded", err)
	}
}

func TestSolveDegenerate(t *testing.T) {
	// Degenerate vertex: several constraints meet at the optimum. Bland's
	// rule must terminate.
	p := Problem{
		Objective: []float64{1, 1},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 0}, Rel: LE, B: 1},
			{Coeffs: []float64{0, 1}, Rel: LE, B: 1},
			{Coeffs: []float64{1, 1}, Rel: LE, B: 2},
			{Coeffs: []float64{2, 1}, Rel: LE, B: 3},
			{Coeffs: []float64{1, 2}, Rel: LE, B: 3},
		},
	}
	_, obj := solveOK(t, p)
	if math.Abs(obj-2) > 1e-8 {
		t.Errorf("obj = %v, want 2", obj)
	}
}

func TestSolveValidation(t *testing.T) {
	if _, _, err := Solve(Problem{}); err == nil {
		t.Error("want error for empty problem")
	}
	p := Problem{
		Objective:   []float64{1, 2},
		Constraints: []Constraint{{Coeffs: []float64{1}, Rel: LE, B: 1}},
	}
	if _, _, err := Solve(p); err == nil {
		t.Error("want error for coefficient length mismatch")
	}
	p = Problem{
		Objective:   []float64{1},
		Constraints: []Constraint{{Coeffs: []float64{1}, Rel: 0, B: 1}},
	}
	if _, _, err := Solve(p); err == nil {
		t.Error("want error for invalid relation")
	}
	for _, tc := range []struct {
		name string
		row  Constraint
		want string
	}{
		{"fewer coefficients than variables", Constraint{Vars: []int{0, 1}, Coeffs: []float64{1}}, "1 coefficients for 2 variables"},
		{"more coefficients than variables", Constraint{Vars: []int{2}, Coeffs: []float64{1, 1}}, "2 coefficients for 1 variables"},
		{"negative variable", Constraint{Vars: []int{0, -1}, Coeffs: []float64{1, 1}}, "variable -1 out of range"},
		{"variable past the last", Constraint{Vars: []int{3}, Coeffs: []float64{1}}, "variable 3 out of range"},
		{"repeated variable", Constraint{Vars: []int{2, 0, 2}, Coeffs: []float64{1, 1, -1}}, "lists variable 2 twice"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			row := tc.row
			row.Rel, row.B = LE, 4
			p := Problem{
				Objective: []float64{1, 1, 1},
				Constraints: []Constraint{
					{Vars: []int{2, 0}, Coeffs: []float64{1, 1}, Rel: LE, B: 5},
					row,
				},
			}
			x, obj, err := Solve(p)
			if err == nil {
				t.Fatalf("Solve accepted it: x=%v obj=%v", x, obj)
			}
			if want := "constraint 1 "; !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %q, want it to name %q and %q", err, want, tc.want)
			}
		})
	}
}

// APRadShape mirrors the AP-Rad use: maximize sum of radii with pairwise
// sum constraints.
func TestSolveAPRadShape(t *testing.T) {
	// Three APs on a line at 0, 10, 25. AP pairs (0,1) co-observed:
	// r0+r1 >= 10. Pair (1,2) co-observed: r1+r2 >= 15. Pair (0,2) never:
	// r0+r2 <= 25. Box: r_i <= 20.
	p := Problem{
		Objective: []float64{1, 1, 1},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1, 0}, Rel: GE, B: 10},
			{Coeffs: []float64{0, 1, 1}, Rel: GE, B: 15},
			{Coeffs: []float64{1, 0, 1}, Rel: LE, B: 25},
			{Coeffs: []float64{1, 0, 0}, Rel: LE, B: 20},
			{Coeffs: []float64{0, 1, 0}, Rel: LE, B: 20},
			{Coeffs: []float64{0, 0, 1}, Rel: LE, B: 20},
		},
	}
	x, _ := solveOK(t, p)
	if x[0]+x[1] < 10-1e-6 || x[1]+x[2] < 15-1e-6 || x[0]+x[2] > 25+1e-6 {
		t.Errorf("constraints violated: %v", x)
	}
	for i, v := range x {
		if v < -1e-9 || v > 20+1e-6 {
			t.Errorf("x[%d] = %v out of box", i, v)
		}
	}
}

// Random LPs: the returned point must satisfy all constraints, and the
// objective must be at least that of any random feasible point we can find
// (optimality lower-bound check).
func TestSolveFeasibilityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(4) + 1
		m := rng.Intn(5) + 1
		p := Problem{Objective: make([]float64, n)}
		for j := range p.Objective {
			p.Objective[j] = rng.Float64() * 2
		}
		for i := 0; i < m; i++ {
			c := Constraint{Coeffs: make([]float64, n), Rel: LE, B: rng.Float64()*10 + 1}
			for j := range c.Coeffs {
				c.Coeffs[j] = rng.Float64() * 3
			}
			p.Constraints = append(p.Constraints, c)
		}
		// All-LE with positive b: feasible (x=0) and bounded unless a
		// variable has all-zero column and positive cost; coefficients are
		// positive with probability 1, so bounded.
		x, obj, err := Solve(p)
		if err != nil {
			return false
		}
		for _, c := range p.Constraints {
			s := 0.0
			for j := range x {
				s += c.Coeffs[j] * x[j]
			}
			if s > c.B+1e-6 {
				return false
			}
		}
		// Compare against random feasible points: none may beat the optimum.
		for trial := 0; trial < 50; trial++ {
			y := make([]float64, n)
			for j := range y {
				y[j] = rng.Float64() * 5
			}
			feas := true
			for _, c := range p.Constraints {
				s := 0.0
				for j := range y {
					s += c.Coeffs[j] * y[j]
				}
				if s > c.B {
					feas = false
					break
				}
			}
			if !feas {
				continue
			}
			yObj := 0.0
			for j := range y {
				yObj += p.Objective[j] * y[j]
			}
			if yObj > obj+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRelationString(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "=" {
		t.Error("relation strings wrong")
	}
	if Relation(9).String() != "Relation(9)" {
		t.Error("unknown relation string wrong")
	}
}

func TestSolveRejectsNonFinite(t *testing.T) {
	ok := func() Problem {
		return Problem{
			Objective: []float64{1, 1},
			Constraints: []Constraint{
				{Coeffs: []float64{1, 0}, Rel: LE, B: 5},
				{Coeffs: []float64{0, 1}, Rel: LE, B: 5},
			},
		}
	}
	cases := []struct {
		name string
		edit func(*Problem)
		want string
	}{
		{"NaN objective", func(p *Problem) { p.Objective[1] = math.NaN() }, "objective coefficient 1"},
		{"+Inf objective", func(p *Problem) { p.Objective[0] = math.Inf(1) }, "objective coefficient 0"},
		{"NaN coefficient", func(p *Problem) { p.Constraints[1].Coeffs[0] = math.NaN() }, "constraint 1 coefficient 0"},
		{"-Inf coefficient", func(p *Problem) { p.Constraints[0].Coeffs[1] = math.Inf(-1) }, "constraint 0 coefficient 1"},
		{"NaN right-hand side", func(p *Problem) { p.Constraints[0].B = math.NaN() }, "constraint 0 right-hand side"},
		{"NaN sparse coefficient", func(p *Problem) {
			p.Constraints[1] = Constraint{Vars: []int{1, 0}, Coeffs: []float64{1, math.NaN()}, Rel: LE, B: 5}
		}, "constraint 1 coefficient 0"},
		{"+Inf sparse coefficient", func(p *Problem) {
			p.Constraints[0] = Constraint{Vars: []int{1}, Coeffs: []float64{math.Inf(1)}, Rel: LE, B: 5}
		}, "constraint 0 coefficient 1"},
		{"+Inf right-hand side", func(p *Problem) { p.Constraints[1].B = math.Inf(1) }, "constraint 1 right-hand side"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := ok()
			tc.edit(&p)
			x, obj, err := Solve(p)
			if err == nil {
				t.Fatalf("Solve accepted it: x=%v obj=%v", x, obj)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %q, want it to name %q", err, tc.want)
			}
		})
	}
	if _, obj := solveOK(t, ok()); obj != 10 {
		t.Errorf("finite problem: obj = %v, want 10", obj)
	}
}

// apradProgram builds an AP-Rad radius program the way core.EstimateRadii
// does, over n APs drawn uniformly on a square campus at the production
// density (300 APs on 700 m × 700 m): maximize Σ rᵢ subject to, for each
// pair that can bind (dᵢⱼ − 1 < 2·box), rᵢ + rⱼ ≤ dᵢⱼ − 1, nearest first
// and kept only while one of its APs has fewer than perAP such rows
// (0 keeps all), then rᵢ ≤ box. With coObserved > 0, pairs closer than it
// are co-observed instead and give rᵢ + rⱼ ≥ dᵢⱼ rows, placed first in
// pair order.
func apradProgram(rng *rand.Rand, n, perAP int, box, coObserved float64) Problem {
	half := 350 * math.Sqrt(float64(n)/300)
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i], ys[i] = (rng.Float64()*2-1)*half, (rng.Float64()*2-1)*half
	}
	p := Problem{Objective: make([]float64, n)}
	for i := range p.Objective {
		p.Objective[i] = 1
	}
	add := func(i, j int, rel Relation, b float64) {
		c := Constraint{Coeffs: make([]float64, n), Rel: rel, B: b}
		c.Coeffs[i], c.Coeffs[j] = 1, 1
		p.Constraints = append(p.Constraints, c)
	}
	type pair struct {
		i, j int
		b    float64
	}
	var uppers []pair
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := math.Hypot(xs[i]-xs[j], ys[i]-ys[j])
			if d < coObserved {
				add(i, j, GE, d)
				continue
			}
			if b := d - 1; b > 0 && b < 2*box {
				uppers = append(uppers, pair{i, j, b})
			}
		}
	}
	if perAP > 0 {
		sort.Slice(uppers, func(a, b int) bool { return uppers[a].b < uppers[b].b })
		count := make([]int, n)
		kept := uppers[:0]
		for _, u := range uppers {
			if count[u.i] >= perAP && count[u.j] >= perAP {
				continue
			}
			count[u.i]++
			count[u.j]++
			kept = append(kept, u)
		}
		uppers = kept
	}
	for _, u := range uppers {
		add(u.i, u.j, LE, u.b)
	}
	for i := 0; i < n; i++ {
		c := Constraint{Coeffs: make([]float64, n), Rel: LE, B: box}
		c.Coeffs[i] = 1
		p.Constraints = append(p.Constraints, c)
	}
	return p
}

// The compact dictionary keeps exactly the full tableau's nonbasic
// entries, and an AP-Rad program's entries stay small dyadic rationals, so
// the two must take the same pivots to the bit-identical vertex.
func TestSolveMatchesDenseOracleAPRad(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(199)
		perAP := []int{2, 6, 12}[rng.Intn(3)]
		coObserved := 0.0
		if seed%3 == 0 {
			coObserved = 40
		}
		p := apradProgram(rng, n, perAP, 160, coObserved)
		name := fmt.Sprintf("seed%d_n%d_cap%d_rows%d", seed, n, perAP, len(p.Constraints))
		t.Run(name, func(t *testing.T) {
			x, obj, st, err := SolveStats(p)
			wx, wobj, wst, werr := denseOracle(p)
			if err != nil || werr != nil {
				t.Fatalf("err = %v, oracle err = %v", err, werr)
			}
			if st != wst {
				t.Errorf("stats = %+v, oracle %+v", st, wst)
			}
			if math.Float64bits(obj) != math.Float64bits(wobj) {
				t.Errorf("obj = %v, oracle %v", obj, wobj)
			}
			for j := range x {
				if math.Float64bits(x[j]) != math.Float64bits(wx[j]) {
					t.Fatalf("x[%d] = %v (%#x), oracle %v (%#x)", j,
						x[j], math.Float64bits(x[j]), wx[j], math.Float64bits(wx[j]))
				}
			}
		})
	}
}

// errClass maps a solve error to its kind, for comparing two solvers.
func errClass(err error) string {
	switch {
	case err == nil:
		return "optimal"
	case errors.Is(err, ErrInfeasible):
		return "infeasible"
	case errors.Is(err, ErrUnbounded):
		return "unbounded"
	}
	return "error: " + err.Error()
}

// mixedProgram draws a small general program: ≤, ≥ and = rows, negative
// right-hand sides, arbitrary coefficients with a third of them zero.
func mixedProgram(rng *rand.Rand) Problem {
	n := 1 + rng.Intn(6)
	m := 1 + rng.Intn(8)
	p := Problem{Objective: make([]float64, n)}
	for j := range p.Objective {
		p.Objective[j] = float64(rng.Intn(9)-2) + rng.Float64()*float64(rng.Intn(2))
	}
	for i := 0; i < m; i++ {
		c := Constraint{
			Coeffs: make([]float64, n),
			Rel:    []Relation{LE, LE, GE, EQ}[rng.Intn(4)],
			B:      rng.Float64()*20 - 6,
		}
		for j := range c.Coeffs {
			if rng.Intn(3) > 0 {
				c.Coeffs[j] = rng.Float64()*6 - 2
			}
		}
		p.Constraints = append(p.Constraints, c)
	}
	return p
}

// On general programs (≥ and = rows, negative right-hand sides, arbitrary
// coefficients) rounding may steer the two solvers apart, so only the
// outcome must agree: the error class, the optimum within 1e-9 relative,
// and a returned point feasible within 1e-6.
func TestSolveMatchesDenseOracleMixed(t *testing.T) {
	classes := map[string]int{}
	for seed := int64(1); seed <= 3000; seed++ {
		p := mixedProgram(rand.New(rand.NewSource(seed)))
		x, obj, err := Solve(p)
		_, wobj, _, werr := denseOracle(p)
		class := errClass(err)
		classes[class]++
		if class != errClass(werr) {
			t.Fatalf("seed %d: %s, oracle %s", seed, class, errClass(werr))
		}
		if err != nil {
			continue
		}
		if math.Abs(obj-wobj) > 1e-9*math.Max(1, math.Max(math.Abs(obj), math.Abs(wobj))) {
			t.Errorf("seed %d: obj = %v, oracle %v", seed, obj, wobj)
		}
		for j, v := range x {
			if v < -1e-6 {
				t.Errorf("seed %d: x[%d] = %v < 0", seed, j, v)
			}
		}
		for i, c := range p.Constraints {
			s := 0.0
			for j, v := range x {
				s += c.Coeffs[j] * v
			}
			if (c.Rel == LE && s > c.B+1e-6) || (c.Rel == GE && s < c.B-1e-6) ||
				(c.Rel == EQ && math.Abs(s-c.B) > 1e-6) {
				t.Errorf("seed %d: row %d: %v %v %v violated at x=%v", seed, i, s, c.Rel, c.B, x)
			}
		}
	}
	for _, c := range []string{"optimal", "infeasible", "unbounded"} {
		if classes[c] < 100 {
			t.Errorf("only %d %s programs in the mix %v; the generator no longer covers it", classes[c], c, classes)
		}
	}
}

// sparseOf writes every row of the dense program p in sparse form: its
// nonzero coefficients in a shuffled variable order, now and then with an
// explicit zero among them.
func sparseOf(p Problem, rng *rand.Rand) Problem {
	sp := Problem{Objective: p.Objective, Constraints: make([]Constraint, len(p.Constraints))}
	for i, c := range p.Constraints {
		row := Constraint{Vars: []int{}, Coeffs: []float64{}, Rel: c.Rel, B: c.B}
		for _, j := range rng.Perm(len(c.Coeffs)) {
			if c.Coeffs[j] != 0 || rng.Intn(8) == 0 {
				row.Vars = append(row.Vars, j)
				row.Coeffs = append(row.Coeffs, c.Coeffs[j])
			}
		}
		sp.Constraints[i] = row
	}
	return sp
}

// The sparse form is another way to write the same rows: written sparse,
// a program solves bit-identically to its dense self — the same point,
// objective and Stats, or the same error.
func TestSolveSparseMatchesDense(t *testing.T) {
	check := func(t *testing.T, name string, p Problem, rng *rand.Rand) {
		t.Helper()
		x, obj, st, err := SolveStats(p)
		sx, sobj, sst, serr := SolveStats(sparseOf(p, rng))
		if fmt.Sprint(err) != fmt.Sprint(serr) || st != sst {
			t.Fatalf("%s: sparse %v %+v, dense %v %+v", name, serr, sst, err, st)
		}
		if math.Float64bits(obj) != math.Float64bits(sobj) {
			t.Errorf("%s: sparse objective %v, dense %v", name, sobj, obj)
		}
		for j := range x {
			if math.Float64bits(x[j]) != math.Float64bits(sx[j]) {
				t.Fatalf("%s: sparse x[%d] = %v, dense %v", name, j, sx[j], x[j])
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for seed := int64(1); seed <= 12; seed++ {
		coObserved := 0.0
		if seed%3 == 0 {
			coObserved = 40
		}
		gen := rand.New(rand.NewSource(seed))
		check(t, fmt.Sprintf("aprad seed %d", seed), apradProgram(gen, 2+gen.Intn(199), []int{0, 2, 12}[seed%3], 160, coObserved), rng)
	}
	for seed := int64(1); seed <= 1000; seed++ {
		check(t, fmt.Sprintf("mixed seed %d", seed), mixedProgram(rand.New(rand.NewSource(seed))), rng)
	}
}

var benchSink []float64

// benchSolveAPRad300 solves the production-shaped AP-Rad program (300
// APs, 12 neighbours per AP, 160 m box) with solve.
func benchSolveAPRad300(b *testing.B, solve func(Problem) ([]float64, float64, Stats, error)) {
	p := apradProgram(rand.New(rand.NewSource(3)), 300, 12, 160, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, _, _, err := solve(p)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = x
	}
}

func BenchmarkSolveAPRad300(b *testing.B)      { benchSolveAPRad300(b, SolveStats) }
func BenchmarkSolveAPRad300Dense(b *testing.B) { benchSolveAPRad300(b, denseOracle) }

func BenchmarkSolveAPRad50(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	n := 50
	p := Problem{Objective: make([]float64, n)}
	for j := range p.Objective {
		p.Objective[j] = 1
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.1 {
				c := Constraint{Coeffs: make([]float64, n), Rel: GE, B: rng.Float64() * 200}
				c.Coeffs[i], c.Coeffs[j] = 1, 1
				p.Constraints = append(p.Constraints, c)
			}
		}
		c := Constraint{Coeffs: make([]float64, n), Rel: LE, B: 500}
		c.Coeffs[i] = 1
		p.Constraints = append(p.Constraints, c)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSolveStatsCountsPivots(t *testing.T) {
	// A ≤-only problem solves in phase 2 alone; GE constraints force a
	// phase-1 drive. Either way Solve and SolveStats must agree exactly.
	le := Problem{
		Objective: []float64{3, 2},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Rel: LE, B: 4},
			{Coeffs: []float64{1, 3}, Rel: LE, B: 6},
		},
	}
	x, obj, st, err := SolveStats(le)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(obj-12) > 1e-8 || math.Abs(x[0]-4) > 1e-8 {
		t.Errorf("SolveStats solution x=%v obj=%v, want [4 0] and 12", x, obj)
	}
	if st.Constraints != 2 {
		t.Errorf("Constraints = %d, want 2", st.Constraints)
	}
	if st.Phase1Pivots != 0 {
		t.Errorf("Phase1Pivots = %d for a <=-only problem, want 0", st.Phase1Pivots)
	}
	if st.Phase2Pivots < 1 || st.Pivots() != st.Phase1Pivots+st.Phase2Pivots {
		t.Errorf("pivot accounting broken: %+v total %d", st, st.Pivots())
	}

	ge := Problem{
		Objective: []float64{1, 1},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Rel: LE, B: 10},
			{Coeffs: []float64{1, 0}, Rel: GE, B: 3},
			{Coeffs: []float64{0, 1}, Rel: GE, B: 2},
		},
	}
	_, _, st, err = SolveStats(ge)
	if err != nil {
		t.Fatal(err)
	}
	if st.Phase1Pivots < 1 {
		t.Errorf("Phase1Pivots = %d for a GE problem, want >= 1", st.Phase1Pivots)
	}

	// An infeasible problem still reports its phase-1 work.
	bad := Problem{
		Objective: []float64{1},
		Constraints: []Constraint{
			{Coeffs: []float64{1}, Rel: LE, B: 1},
			{Coeffs: []float64{1}, Rel: GE, B: 5},
		},
	}
	if _, _, st, err = SolveStats(bad); err == nil {
		t.Fatal("want infeasible error")
	} else if st.Constraints != 2 || st.Phase1Pivots < 1 {
		t.Errorf("infeasible stats = %+v, want constraint and pivot counts", st)
	}
}

// denseOracle is the full-tableau two-phase simplex the compact dictionary
// replaced, kept as the differential oracle: the same phases, artificial
// handling, Bland's rule and tolerances over an (m+1)×(n+slack+art+1)
// tableau that carries every basic column explicitly.
func denseOracle(p Problem) ([]float64, float64, Stats, error) {
	st := Stats{Constraints: len(p.Constraints)}
	n := len(p.Objective)
	t := newDenseTableau(p)
	if err := t.phase1(); err != nil {
		st.Phase1Pivots = t.pivots
		return nil, 0, st, err
	}
	st.Phase1Pivots = t.pivots
	if err := t.phase2(); err != nil {
		st.Phase2Pivots = t.pivots - st.Phase1Pivots
		return nil, 0, st, err
	}
	st.Phase2Pivots = t.pivots - st.Phase1Pivots
	x := t.solution(n)
	obj := 0.0
	for j := 0; j < n; j++ {
		obj += p.Objective[j] * x[j]
	}
	return x, obj, st, nil
}

// denseTableau is a standard-form simplex tableau. Columns: n structural
// variables, then slack/surplus variables, then artificial variables, then
// the RHS column.
type denseTableau struct {
	m, n     int       // constraint count, structural variable count
	nSlack   int       // slack/surplus count
	nArt     int       // artificial count
	rows     []float64 // (m+1) x width matrix, last row is objective
	width    int
	basis    []int // basic variable per row
	artStart int   // column index of first artificial
	costs    []float64
	pivots   int // Gauss-Jordan pivots performed
}

func newDenseTableau(p Problem) *denseTableau {
	m := len(p.Constraints)
	n := len(p.Objective)

	// Normalize rows to b >= 0.
	type row struct {
		a   []float64
		rel Relation
		b   float64
	}
	rows := make([]row, m)
	for i, c := range p.Constraints {
		a := make([]float64, n)
		copy(a, c.Coeffs)
		b := c.B
		rel := c.Rel
		if b < 0 {
			for j := range a {
				a[j] = -a[j]
			}
			b = -b
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		rows[i] = row{a: a, rel: rel, b: b}
	}

	nSlack := 0
	nArt := 0
	for _, r := range rows {
		switch r.rel {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		}
	}

	width := n + nSlack + nArt + 1
	t := &denseTableau{
		m:        m,
		n:        n,
		nSlack:   nSlack,
		nArt:     nArt,
		width:    width,
		rows:     make([]float64, (m+1)*width),
		basis:    make([]int, m),
		artStart: n + nSlack,
		costs:    make([]float64, n),
	}
	copy(t.costs, p.Objective)

	slackCol := n
	artCol := t.artStart
	for i, r := range rows {
		base := i * width
		copy(t.rows[base:base+n], r.a)
		t.rows[base+width-1] = r.b
		switch r.rel {
		case LE:
			t.rows[base+slackCol] = 1
			t.basis[i] = slackCol
			slackCol++
		case GE:
			t.rows[base+slackCol] = -1 // surplus
			slackCol++
			t.rows[base+artCol] = 1
			t.basis[i] = artCol
			artCol++
		case EQ:
			t.rows[base+artCol] = 1
			t.basis[i] = artCol
			artCol++
		}
	}
	return t
}

func (t *denseTableau) at(i, j int) float64 { return t.rows[i*t.width+j] }

// pivot performs a Gauss-Jordan pivot on (pr, pc).
func (t *denseTableau) pivot(pr, pc int) {
	pv := t.at(pr, pc)
	inv := 1.0 / pv
	base := pr * t.width
	for j := 0; j < t.width; j++ {
		t.rows[base+j] *= inv
	}
	for i := 0; i <= t.m; i++ {
		if i == pr {
			continue
		}
		f := t.at(i, pc)
		if f == 0 {
			continue
		}
		rb := i * t.width
		for j := 0; j < t.width; j++ {
			t.rows[rb+j] -= f * t.rows[base+j]
		}
	}
	t.basis[pr] = pc
	t.pivots++
}

// runSimplex iterates simplex pivots on the current objective row (row m),
// maximizing, with Bland's rule. cols limits eligible entering columns.
func (t *denseTableau) runSimplex(cols int) error {
	for iter := 0; iter < maxIters; iter++ {
		// Entering column: smallest index with positive reduced cost
		// (we keep the objective row as reduced costs for maximization).
		pc := -1
		for j := 0; j < cols; j++ {
			if t.at(t.m, j) > tol {
				pc = j
				break
			}
		}
		if pc == -1 {
			return nil // optimal
		}
		// Leaving row: min ratio, Bland tie-break on basis index.
		pr := -1
		best := math.Inf(1)
		for i := 0; i < t.m; i++ {
			a := t.at(i, pc)
			if a > tol {
				ratio := t.at(i, t.width-1) / a
				if ratio < best-tol || (math.Abs(ratio-best) <= tol &&
					(pr == -1 || t.basis[i] < t.basis[pr])) {
					best = ratio
					pr = i
				}
			}
		}
		if pr == -1 {
			return ErrUnbounded
		}
		t.pivot(pr, pc)
	}
	return errors.New("lp: iteration limit exceeded")
}

// phase1 drives artificial variables to zero.
func (t *denseTableau) phase1() error {
	if t.nArt == 0 {
		return nil
	}
	// Phase-1 objective: maximize −Σ artificials. Build the reduced-cost
	// row: start from −1 on artificial columns and add back the basic rows
	// containing artificials.
	objBase := t.m * t.width
	for j := 0; j < t.width; j++ {
		t.rows[objBase+j] = 0
	}
	for j := t.artStart; j < t.artStart+t.nArt; j++ {
		t.rows[objBase+j] = -1
	}
	for i := 0; i < t.m; i++ {
		if t.basis[i] >= t.artStart {
			rb := i * t.width
			for j := 0; j < t.width; j++ {
				t.rows[objBase+j] += t.rows[rb+j]
			}
		}
	}
	if err := t.runSimplex(t.width - 1); err != nil {
		if errors.Is(err, ErrUnbounded) {
			// Phase-1 objective is bounded by construction; treat as internal.
			return errors.New("lp: internal: unbounded phase 1")
		}
		return err
	}
	// The objective row's RHS holds the negated phase-1 value, i.e.
	// Σ artificials at the optimum; infeasible if it stays positive.
	if v := t.at(t.m, t.width-1); v > 1e-6 {
		return ErrInfeasible
	}
	// Pivot any artificial still in the basis (at zero level) out.
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.artStart {
			continue
		}
		done := false
		for j := 0; j < t.artStart && !done; j++ {
			if math.Abs(t.at(i, j)) > tol {
				t.pivot(i, j)
				done = true
			}
		}
		// If the row is all zeros over structural+slack columns the
		// constraint is redundant; leave the artificial basic at zero.
	}
	return nil
}

// phase2 optimizes the real objective over structural and slack columns.
func (t *denseTableau) phase2() error {
	objBase := t.m * t.width
	for j := 0; j < t.width; j++ {
		t.rows[objBase+j] = 0
	}
	for j := 0; j < t.n; j++ {
		t.rows[objBase+j] = t.costs[j]
	}
	// Reduce against the current basis.
	for i := 0; i < t.m; i++ {
		b := t.basis[i]
		if b < t.n && t.costs[b] != 0 {
			f := t.at(t.m, b)
			if f == 0 {
				continue
			}
			rb := i * t.width
			for j := 0; j < t.width; j++ {
				t.rows[objBase+j] -= f * t.rows[rb+j]
			}
		}
	}
	// Exclude artificial columns from entering.
	return t.runSimplex(t.artStart)
}

func (t *denseTableau) solution(n int) []float64 {
	x := make([]float64, n)
	for i := 0; i < t.m; i++ {
		if b := t.basis[i]; b < n {
			x[b] = t.at(i, t.width-1)
			if x[b] < 0 && x[b] > -1e-7 {
				x[b] = 0
			}
		}
	}
	return x
}

// Package lp implements a two-phase simplex solver over a compact
// dictionary for small and medium linear programs. The Marauder's map AP-Rad algorithm uses it to estimate AP
// maximum transmission distances: maximize Σ r_j subject to pairwise
// co-observation constraints r_i + r_j ≥ d_ij (or < d_ij) and box bounds.
//
// The solver handles ≤, ≥ and = constraints over non-negative variables and
// uses Bland's rule, so it cannot cycle. The dictionary keeps one row per
// constraint and one column per nonbasic variable: the identity columns of
// the basic variables are implicit, so an m-row program over n variables
// with g ≥ rows takes (m+1)×(n+g) floats rather than a full tableau's
// (m+1)×(n+m+g). Each pivot touches only the nonzero entries of its pivot
// row.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Relation is a constraint comparison operator.
type Relation int

// Constraint relations.
const (
	LE Relation = iota + 1 // Σ a_j x_j ≤ b
	GE                     // Σ a_j x_j ≥ b
	EQ                     // Σ a_j x_j = b
)

// String implements fmt.Stringer.
func (r Relation) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return fmt.Sprintf("Relation(%d)", int(r))
	}
}

// Constraint is one linear constraint over the problem variables.
type Constraint struct {
	// Coeffs holds one coefficient per variable (dense).
	Coeffs []float64
	Rel    Relation
	// B is the right-hand side.
	B float64
}

// Problem is a linear program: maximize Objective·x subject to Constraints
// and x ≥ 0.
type Problem struct {
	// Objective holds the coefficient of each variable in the function to
	// maximize.
	Objective []float64
	// Constraints are the linear constraints.
	Constraints []Constraint
}

// Solver errors.
var (
	ErrInfeasible = errors.New("lp: problem is infeasible")
	ErrUnbounded  = errors.New("lp: objective is unbounded")
)

const (
	tol      = 1e-9
	maxIters = 200000
)

// Stats reports the work a solve took — the provenance of a solution.
type Stats struct {
	// Phase1Pivots counts pivots spent driving artificials to zero
	// (including the pivot-out of zero-level artificials).
	Phase1Pivots int
	// Phase2Pivots counts pivots optimizing the real objective.
	Phase2Pivots int
	// Constraints is the constraint count of the solved program.
	Constraints int
}

// Pivots is the total simplex pivot count across both phases.
func (s Stats) Pivots() int { return s.Phase1Pivots + s.Phase2Pivots }

// Solve maximizes the problem and returns the optimal variable assignment
// and objective value. It returns ErrInfeasible when no assignment satisfies
// the constraints and ErrUnbounded when the objective can grow without
// limit.
func Solve(p Problem) ([]float64, float64, error) {
	x, obj, _, err := SolveStats(p)
	return x, obj, err
}

// SolveStats is Solve with the solver-work statistics alongside, for
// callers that record training provenance.
func SolveStats(p Problem) ([]float64, float64, Stats, error) {
	var st Stats
	n := len(p.Objective)
	if n == 0 {
		return nil, 0, st, errors.New("lp: no variables")
	}
	for j, v := range p.Objective {
		if !finite(v) {
			return nil, 0, st, fmt.Errorf("lp: objective coefficient %d is %v", j, v)
		}
	}
	for i, c := range p.Constraints {
		if len(c.Coeffs) != n {
			return nil, 0, st, fmt.Errorf("lp: constraint %d has %d coefficients, want %d",
				i, len(c.Coeffs), n)
		}
		switch c.Rel {
		case LE, GE, EQ:
		default:
			return nil, 0, st, fmt.Errorf("lp: constraint %d has invalid relation", i)
		}
		for j, v := range c.Coeffs {
			if !finite(v) {
				return nil, 0, st, fmt.Errorf("lp: constraint %d coefficient %d is %v", i, j, v)
			}
		}
		if !finite(c.B) {
			return nil, 0, st, fmt.Errorf("lp: constraint %d right-hand side is %v", i, c.B)
		}
	}
	st.Constraints = len(p.Constraints)

	d := newDict(p)
	if err := d.phase1(); err != nil {
		st.Phase1Pivots = d.pivots
		return nil, 0, st, err
	}
	st.Phase1Pivots = d.pivots
	if err := d.phase2(); err != nil {
		st.Phase2Pivots = d.pivots - st.Phase1Pivots
		return nil, 0, st, err
	}
	st.Phase2Pivots = d.pivots - st.Phase1Pivots
	x := d.solution()
	obj := 0.0
	for j := 0; j < n; j++ {
		obj += p.Objective[j] * x[j]
	}
	return x, obj, st, nil
}

// finite reports whether v is neither NaN nor ±Inf: for those v − v is
// NaN, for every other float exactly 0.
func finite(v float64) bool { return v-v == 0 }

// dict is a simplex dictionary in tableau form with the basic columns left
// out. Variables are numbered as in the full standard-form tableau: n
// structural variables, then one slack (≤ row) or surplus (≥ row) per
// inequality in row order, then one artificial per ≥ or = row in row
// order. Column slot s holds nonbasic variable nonbasic[s]; row i has
// basic variable basis[i]. A basic column is a unit vector, so the
// entries kept are the full tableau's nonbasic entries, computed by the
// same operations: where the tableau's basic columns come out exactly
// unit (any program whose pivots are powers of two, such as AP-Rad's
// unit-coefficient rows), the pivot sequence (Bland's rule on variable
// indices) and every value are bit-identical to a full-tableau solve;
// elsewhere they agree up to rounding.
type dict struct {
	m, n     int
	artStart int       // variable index of the first artificial
	nArt     int       // artificial count
	w        int       // column slots: n + surplus count
	a        []float64 // (m+1) x w entries; row m is the reduced-cost row
	rhs      []float64 // m+1 right-hand sides; rhs[m] is minus the objective
	basis    []int     // basic variable per row
	nonbasic []int     // nonbasic variable per column slot
	costs    []float64
	nz       []int // scratch: slots where the pivot row is nonzero
	col      []int // scratch: rows (objective included) where the entering column is nonzero
	pivots   int   // pivots performed
}

func newDict(p Problem) *dict {
	m := len(p.Constraints)
	n := len(p.Objective)

	// Normalize rows to b >= 0.
	rels := make([]Relation, m)
	nSlack, nSurplus, nArt := 0, 0, 0
	for i, c := range p.Constraints {
		rel := c.Rel
		if c.B < 0 {
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		rels[i] = rel
		switch rel {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nSurplus++
			nArt++
		case EQ:
			nArt++
		}
	}

	w := n + nSurplus
	d := &dict{
		m:        m,
		n:        n,
		artStart: n + nSlack,
		nArt:     nArt,
		w:        w,
		a:        make([]float64, (m+1)*w),
		rhs:      make([]float64, m+1),
		basis:    make([]int, m),
		nonbasic: make([]int, w),
		costs:    p.Objective,
	}
	for j := 0; j < n; j++ {
		d.nonbasic[j] = j
	}
	slackVar, artVar, surplusSlot := n, d.artStart, n
	for i, c := range p.Constraints {
		row := d.a[i*w : i*w+n]
		if c.B < 0 {
			for j, v := range c.Coeffs {
				row[j] = -v
			}
			d.rhs[i] = -c.B
		} else {
			copy(row, c.Coeffs)
			d.rhs[i] = c.B
		}
		switch rels[i] {
		case LE:
			d.basis[i] = slackVar
			slackVar++
		case GE:
			d.a[i*w+surplusSlot] = -1
			d.nonbasic[surplusSlot] = slackVar
			surplusSlot++
			slackVar++
			d.basis[i] = artVar
			artVar++
		case EQ:
			d.basis[i] = artVar
			artVar++
		}
	}
	return d
}

func (d *dict) row(i int) []float64 { return d.a[i*d.w : (i+1)*d.w] }

// column lists, in increasing order, the rows (the objective row m
// included) where column slot s is nonzero. A pivot on s reads the column
// through this list, so the strided walk down the dictionary happens once.
func (d *dict) column(s int) []int {
	d.col = d.col[:0]
	for i, off := 0, s; i <= d.m; i, off = i+1, off+d.w {
		if d.a[off] != 0 {
			d.col = append(d.col, i)
		}
	}
	return d.col
}

// pivot exchanges the basic variable of row pr with the nonbasic variable
// in column slot s. The leaving variable takes over slot s, whose column
// becomes the entering column divided by minus the pivot (the pivot row
// entry is the pivot's inverse). Every other row is updated only at the
// slots where the scaled pivot row is nonzero. rows is column(s).
func (d *dict) pivot(pr, s int, rows []int) {
	prow := d.row(pr)
	inv := 1.0 / prow[s]
	d.nz = d.nz[:0]
	for j, v := range prow {
		if v == 0 || j == s {
			continue
		}
		prow[j] = v * inv
		d.nz = append(d.nz, j)
	}
	prow[s] = inv
	d.rhs[pr] *= inv
	pb := d.rhs[pr]
	for _, i := range rows {
		if i == pr {
			continue
		}
		row := d.row(i)
		f := row[s]
		for _, j := range d.nz {
			row[j] -= f * prow[j]
		}
		row[s] = -f * inv
		d.rhs[i] -= f * pb
	}
	d.basis[pr], d.nonbasic[s] = d.nonbasic[s], d.basis[pr]
	d.pivots++
}

// runSimplex iterates simplex pivots on the reduced-cost row (row m),
// maximizing, with Bland's rule. Only variables below cols may enter.
func (d *dict) runSimplex(cols int) error {
	obj := d.row(d.m)
	for iter := 0; iter < maxIters; iter++ {
		// Entering variable: the smallest index with positive reduced
		// cost.
		pc := -1
		for s, v := range obj {
			if v > tol && d.nonbasic[s] < cols && (pc == -1 || d.nonbasic[s] < d.nonbasic[pc]) {
				pc = s
			}
		}
		if pc == -1 {
			return nil // optimal
		}
		// Leaving row: min ratio, Bland tie-break on basis index.
		rows := d.column(pc)
		pr := -1
		best := math.Inf(1)
		for _, i := range rows {
			a := d.a[i*d.w+pc]
			if a > tol && i < d.m {
				ratio := d.rhs[i] / a
				if ratio < best-tol || (math.Abs(ratio-best) <= tol &&
					(pr == -1 || d.basis[i] < d.basis[pr])) {
					best = ratio
					pr = i
				}
			}
		}
		if pr == -1 {
			return ErrUnbounded
		}
		d.pivot(pr, pc, rows)
	}
	return errors.New("lp: iteration limit exceeded")
}

// phase1 drives artificial variables to zero.
func (d *dict) phase1() error {
	if d.nArt == 0 {
		return nil
	}
	// Phase-1 objective: maximize −Σ artificials. Every artificial starts
	// basic, so its reduced-cost row is the sum of the artificial rows.
	obj := d.row(d.m)
	for i := 0; i < d.m; i++ {
		if d.basis[i] >= d.artStart {
			for j, v := range d.row(i) {
				obj[j] += v
			}
			d.rhs[d.m] += d.rhs[i]
		}
	}
	if err := d.runSimplex(d.artStart + d.nArt); err != nil {
		if errors.Is(err, ErrUnbounded) {
			// Phase-1 objective is bounded by construction; treat as internal.
			return errors.New("lp: internal: unbounded phase 1")
		}
		return err
	}
	// The objective row's RHS holds the negated phase-1 value, i.e.
	// Σ artificials at the optimum; infeasible if it stays positive.
	if d.rhs[d.m] > 1e-6 {
		return ErrInfeasible
	}
	// Pivot any artificial still in the basis (at zero level) out, on the
	// smallest-index structural or slack variable its row can take.
	for i := 0; i < d.m; i++ {
		if d.basis[i] < d.artStart {
			continue
		}
		pc := -1
		for s, v := range d.row(i) {
			if d.nonbasic[s] < d.artStart && math.Abs(v) > tol &&
				(pc == -1 || d.nonbasic[s] < d.nonbasic[pc]) {
				pc = s
			}
		}
		// With no such entry the constraint is redundant; leave the
		// artificial basic at zero.
		if pc != -1 {
			d.pivot(i, pc, d.column(pc))
		}
	}
	return nil
}

// phase2 optimizes the real objective over structural and slack variables.
func (d *dict) phase2() error {
	obj := d.row(d.m)
	for s, v := range d.nonbasic {
		obj[s] = 0
		if v < d.n {
			obj[s] = d.costs[v]
		}
	}
	d.rhs[d.m] = 0
	// Reduce against the current basis.
	for i, b := range d.basis {
		if b >= d.n || d.costs[b] == 0 {
			continue
		}
		f := d.costs[b]
		for j, v := range d.row(i) {
			obj[j] -= f * v
		}
		d.rhs[d.m] -= f * d.rhs[i]
	}
	return d.runSimplex(d.artStart)
}

func (d *dict) solution() []float64 {
	x := make([]float64, d.n)
	for i, b := range d.basis {
		if b < d.n {
			x[b] = d.rhs[i]
			if x[b] < 0 && x[b] > -1e-7 {
				x[b] = 0
			}
		}
	}
	return x
}

package main

import (
	"errors"
	"fmt"

	"repro/internal/lp"
)

// refMaximize is the benchmark's own reference solver for the AP-Rad
// radius program, kept apart from internal/lp so that a change to the
// engine's solver cannot move the reference with it. It maximizes
// Objective·x over x ≥ 0 subject to ≤ constraints with non-negative
// right-hand sides, which makes the origin a feasible start: a
// one-phase simplex on the compact dictionary (one column per nonbasic
// variable). It pivots on the largest reduced cost and falls back to
// Bland's rule, which cannot cycle, once pivots stop improving the
// objective. It returns the optimal point and its objective.
func refMaximize(p lp.Problem) ([]float64, float64, error) {
	const eps = 1e-9
	n, m := len(p.Objective), len(p.Constraints)
	// Row i reads: basic[i] = rhs[i] − Σⱼ t[i·n+j]·nonbasic[j].
	t := make([]float64, m*n)
	rhs := make([]float64, m)
	basic := make([]int, m)    // variable ids: 0..n−1 decision, n+i slack of row i
	nonbasic := make([]int, n) // variable id of each column
	cost := append([]float64(nil), p.Objective...)
	for j := range nonbasic {
		nonbasic[j] = j
	}
	for i, c := range p.Constraints {
		if c.Rel != lp.LE || c.B < 0 || len(c.Coeffs) != n {
			return nil, 0, fmt.Errorf("reference solver: row %d is not a ≤ row with b ≥ 0 over %d variables", i, n)
		}
		copy(t[i*n:(i+1)*n], c.Coeffs)
		rhs[i] = c.B
		basic[i] = n + i
	}
	var z float64
	stalled := 0
	for pivots := 0; ; pivots++ {
		if pivots > 50*(m+n) {
			return nil, 0, errors.New("reference solver: pivot limit reached")
		}
		bland := stalled > n
		col := -1
		for j, c := range cost {
			if c <= eps {
				continue
			}
			if col < 0 || (bland && nonbasic[j] < nonbasic[col]) || (!bland && c > cost[col]) {
				col = j
			}
		}
		if col < 0 {
			break
		}
		row := -1
		var best float64
		for i := 0; i < m; i++ {
			a := t[i*n+col]
			if a <= eps {
				continue
			}
			r := rhs[i] / a
			if row < 0 || r < best-eps || (r <= best+eps && basic[i] < basic[row]) {
				row, best = i, r
			}
		}
		if row < 0 {
			return nil, 0, errors.New("reference solver: unbounded")
		}
		if best <= eps {
			stalled++
		} else {
			stalled = 0
		}
		z += refPivot(t, rhs, cost, n, row, col)
		basic[row], nonbasic[col] = nonbasic[col], basic[row]
	}
	x := make([]float64, n)
	for i, v := range basic {
		if v < n {
			x[v] = rhs[i]
		}
	}
	return x, z, nil
}

// refPivot exchanges the basic variable of row r with the nonbasic
// variable of column s and returns the objective's gain.
func refPivot(t, rhs, cost []float64, n, r, s int) float64 {
	pr := t[r*n : (r+1)*n]
	p := pr[s]
	for j := range pr {
		pr[j] /= p
	}
	pr[s] = 1 / p
	rhs[r] /= p
	for i := 0; i < len(rhs); i++ {
		ri := t[i*n : (i+1)*n]
		f := ri[s]
		if i == r || f == 0 {
			continue
		}
		for j, v := range pr {
			ri[j] -= f * v
		}
		ri[s] = -f * pr[s]
		rhs[i] -= f * rhs[r]
	}
	f := cost[s]
	for j, v := range pr {
		cost[j] -= f * v
	}
	cost[s] = -f * pr[s]
	return f * rhs[r]
}

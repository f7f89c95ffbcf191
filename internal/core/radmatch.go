package core

import "math"

// The radius program left after presolve, maximize Σ rᵢ subject to
// rᵢ + rⱼ ≤ bᵢⱼ over the kept rows and 0 ≤ rᵢ ≤ R, is solved exactly
// as a maximum-weight matching on its bipartite double cover.
//
// Let cᵢ = min(R, min b over APᵢ's rows), presolve's bound. Every kept
// row has the gain gᵢⱼ = cᵢ + cⱼ − bᵢⱼ ≥ 0. The double cover maximizes
// Σ(uᵢ + vᵢ) subject to uᵢ + vⱼ ≤ bᵢⱼ and uⱼ + vᵢ ≤ bᵢⱼ with u, v in
// [0, R]; it has the radius program's optimum at r = (u + v)/2, since
// r ↦ (r, r) and (u, v) ↦ (u + v)/2 both keep feasibility and the
// objective. Substituting u = c − y and v = c − z turns it into
// minimize Σ(yᵢ + zᵢ) subject to yᵢ + zⱼ ≥ gᵢⱼ on both orientations of
// every row and y, z ≥ 0 (the bounds y, z ≤ c never bind at an optimum,
// as gᵢⱼ ≤ min(cᵢ, cⱼ)). That is the dual of the maximum-weight
// matching between left copies Lᵢ and right copies Rⱼ, with edges
// (Lᵢ, Rⱼ) and (Lⱼ, Rᵢ) of weight gᵢⱼ; the constraint matrix is totally
// unimodular. Optimal matching duals give the optimal radii
// rᵢ = cᵢ − (yᵢ + zᵢ)/2, at Σc − ½·(matching weight).

// radMatch is a maximum-weight matching on the double cover of a set of
// pair rows, with its duals. It is solved by a primal-dual Hungarian
// search: the duals stay feasible, matched edges tight, and a right
// vertex with zⱼ > 0 matched; each search from a free left vertex with
// yᵢ > 0 either augments the matching or drives one left dual to 0.
// When no free left vertex has a positive dual the complementary
// slackness conditions hold and both the matching and the duals are
// optimal.
type radMatch struct {
	// Left vertex i's edges are nbr[start[i]:start[i+1]], to the right
	// copies of its row partners, with the gains w alongside.
	start []int32
	nbr   []int32
	w     []float64
	// y and z are the left and right duals; mateL and mateR the matching,
	// −1 where a vertex is free.
	y, z         []float64
	mateL, mateR []int32
	// steps counts the solver's steps: one per AP for its bound, one per
	// greedy match, one per search.
	steps int

	// Search state, reset after each search: the distances of the
	// settled left and the reached right vertices, the left vertex each
	// right one was reached from, the visited vertex lists, and the
	// earliest retire event so far: left vertex retire's dual reaches 0
	// at distance retireAt.
	distL, distR       []float64
	doneR              []bool
	predR              []int32
	settledL, settledR []int32
	reachedR           []int32
	heap               distHeap
	retire             int32
	retireAt           float64
}

// newRadMatch builds the double cover of rows, with c the per-AP bounds
// presolve returned, and solves it.
func newRadMatch(rows []pairRow, c []float64) *radMatch {
	n := len(c)
	m := &radMatch{start: make([]int32, n+1)}
	for _, r := range rows {
		if c[r.i]+c[r.j]-r.b > 0 {
			m.start[r.i+1]++
			m.start[r.j+1]++
		}
	}
	for i := 0; i < n; i++ {
		m.start[i+1] += m.start[i]
	}
	m.nbr = make([]int32, m.start[n])
	m.w = make([]float64, m.start[n])
	fill := make([]int32, n)
	copy(fill, m.start)
	for _, r := range rows {
		if g := c[r.i] + c[r.j] - r.b; g > 0 {
			m.nbr[fill[r.i]], m.w[fill[r.i]] = int32(r.j), g
			fill[r.i]++
			m.nbr[fill[r.j]], m.w[fill[r.j]] = int32(r.i), g
			fill[r.j]++
		}
	}

	floats := make([]float64, 4*n)
	m.y, m.z, m.distL, m.distR = floats[:n:n], floats[n:2*n:2*n], floats[2*n:3*n:3*n], floats[3*n:]
	ints := make([]int32, 3*n)
	m.mateL, m.mateR, m.predR = ints[:n:n], ints[n:2*n:2*n], ints[2*n:]
	m.doneR = make([]bool, n)
	for i := range m.mateL {
		m.mateL[i], m.mateR[i] = -1, -1
		m.distL[i], m.distR[i] = math.Inf(1), math.Inf(1)
	}
	m.solve()
	return m
}

// solve starts from yᵢ = the largest gain at Lᵢ and z = 0, matches
// greedily along tight edges, then searches from every left vertex left
// free with a positive dual. A left vertex, once matched or at a zero
// dual, never again becomes free with a positive one, so one pass
// suffices.
func (m *radMatch) solve() {
	n := len(m.y)
	m.steps = n
	for i := 0; i < n; i++ {
		for _, g := range m.w[m.start[i]:m.start[i+1]] {
			m.y[i] = max(m.y[i], g)
		}
		if m.y[i] == 0 {
			continue
		}
		for e := m.start[i]; e < m.start[i+1]; e++ {
			if j := m.nbr[e]; m.w[e] == m.y[i] && m.mateR[j] < 0 {
				m.mateL[i], m.mateR[j] = j, int32(i)
				m.steps++
				break
			}
		}
	}
	for i := 0; i < n; i++ {
		if m.mateL[i] < 0 && m.y[i] > 0 {
			m.search(int32(i))
			m.steps++
		}
	}
}

// search runs one Dijkstra from the free left root over alternating
// paths, on the edge slacks yₖ + zⱼ − g (clamped at 0; matched edges
// are tight). It stops at the first of two events at distance D:
//   - a free right vertex j is reached: the matching augments along the
//     path root…j;
//   - a settled left vertex k's dual would reach 0 (D = d(k) + yₖ): the
//     path root…k flips, leaving k free at yₖ = 0 (the root itself simply
//     drops to 0).
//
// Either way each settled vertex's dual then moves by D − d: yₖ down
// and zⱼ up, which keeps every slack non-negative and tightens the path.
func (m *radMatch) search(root int32) {
	// The retire event is tracked as the smallest d(k) + yₖ so far
	// rather than kept in the heap; right vertices at or beyond it are
	// never settled.
	m.retire, m.retireAt = root, m.y[root]
	m.settle(root, 0)
	for {
		if len(m.heap) == 0 || m.heap[0].d >= m.retireAt {
			k := m.retire
			m.update(m.retireAt)
			m.y[k] = 0 // exactly, whatever the rounding of D − d(k)
			if k != root {
				j := m.mateL[k]
				m.mateL[k] = -1
				m.augment(j, root)
			}
			break
		}
		it := m.heap.pop()
		j := it.v
		if m.doneR[j] || it.d > m.distR[j] {
			continue // stale: j was reached more cheaply since
		}
		m.doneR[j] = true
		m.settledR = append(m.settledR, j)
		if k := m.mateR[j]; k >= 0 {
			m.settle(k, it.d)
			continue
		}
		m.update(it.d)
		m.augment(j, root)
		break
	}

	for _, k := range m.settledL {
		m.distL[k] = math.Inf(1)
	}
	for _, j := range m.reachedR {
		m.distR[j], m.doneR[j] = math.Inf(1), false
	}
	m.settledL, m.settledR, m.reachedR = m.settledL[:0], m.settledR[:0], m.reachedR[:0]
	m.heap = m.heap[:0]
}

// settle adds left vertex k to the search tree at distance d: its
// retire event, then its non-tree edges.
func (m *radMatch) settle(k int32, d float64) {
	m.distL[k] = d
	m.settledL = append(m.settledL, k)
	if at := d + m.y[k]; at < m.retireAt {
		m.retire, m.retireAt = k, at
	}
	for e := m.start[k]; e < m.start[k+1]; e++ {
		j := m.nbr[e]
		if m.doneR[j] {
			continue
		}
		nd := d + max(0, m.y[k]+m.z[j]-m.w[e])
		if nd >= m.retireAt || nd >= m.distR[j] {
			continue
		}
		if math.IsInf(m.distR[j], 1) {
			m.reachedR = append(m.reachedR, j)
		}
		m.distR[j], m.predR[j] = nd, k
		m.heap.push(distItem{nd, j})
	}
}

// update moves the duals of the settled vertices to the event at D.
func (m *radMatch) update(D float64) {
	for _, k := range m.settledL {
		m.y[k] = max(0, m.y[k]-(D-m.distL[k]))
	}
	for _, j := range m.settledR {
		m.z[j] += D - m.distR[j]
	}
}

// augment matches right vertex j along its search path back to root,
// flipping every edge of the path.
func (m *radMatch) augment(j, root int32) {
	for {
		k := m.predR[j]
		next := m.mateL[k]
		m.mateL[k], m.mateR[j] = j, k
		if k == root {
			return
		}
		j = next
	}
}

// radii returns the optimal radii rᵢ = cᵢ − (yᵢ + zᵢ)/2, clamped to
// [0, maxRadius] against rounding.
func (m *radMatch) radii(c []float64, maxRadius float64) []float64 {
	r := make([]float64, len(c))
	for i := range r {
		r[i] = min(maxRadius, max(0, c[i]-(m.y[i]+m.z[i])/2))
	}
	return r
}

// distItem is a right vertex reached at distance d.
type distItem struct {
	d float64
	v int32
}

// distHeap is a binary min-heap of distItems on d.
type distHeap []distItem

func (h *distHeap) push(it distItem) {
	*h = append(*h, it)
	s := *h
	for c := len(s) - 1; c > 0; {
		p := (c - 1) / 2
		if !(s[c].d < s[p].d) {
			break
		}
		s[c], s[p] = s[p], s[c]
		c = p
	}
}

func (h *distHeap) pop() distItem {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	for p := 0; ; {
		c := 2*p + 1
		if c >= last {
			break
		}
		if c+1 < last && s[c+1].d < s[c].d {
			c++
		}
		if !(s[c].d < s[p].d) {
			break
		}
		s[p], s[c] = s[c], s[p]
		p = c
	}
	*h = s
	return top
}

package geom

import (
	"math"
	"math/rand"
	"testing"
)

// Metamorphic properties of IntersectionArea: the area must be invariant
// under rigid motions and disc-order permutation, and scale with s² under
// uniform scaling. These hold for any disc set, so they are checked over
// randomized configurations (overlapping, disjoint, contained, chains).

func randomDiscSet(rng *rand.Rand) []Circle {
	k := 2 + rng.Intn(6)
	discs := make([]Circle, k)
	for i := range discs {
		discs[i] = Circle{
			C: Pt(rng.Float64()*20-10, rng.Float64()*20-10),
			R: 0.5 + rng.Float64()*9,
		}
	}
	return discs
}

// relTol is the metamorphic comparison tolerance: transformed inputs take
// different floating-point paths, so exact equality is not expected.
const relTol = 1e-9

func relClose(a, b float64) bool {
	return math.Abs(a-b) <= relTol*(1+math.Max(math.Abs(a), math.Abs(b)))
}

func TestIntersectionAreaTranslationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 200; trial++ {
		discs := randomDiscSet(rng)
		want := IntersectionArea(discs)
		dx, dy := rng.Float64()*2000-1000, rng.Float64()*2000-1000
		moved := make([]Circle, len(discs))
		for i, c := range discs {
			moved[i] = Circle{C: Pt(c.C.X+dx, c.C.Y+dy), R: c.R}
		}
		if got := IntersectionArea(moved); !relClose(got, want) {
			t.Fatalf("trial %d: translated by (%g,%g): area %.17g, want %.17g", trial, dx, dy, got, want)
		}
	}
}

func TestIntersectionAreaRotationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 200; trial++ {
		discs := randomDiscSet(rng)
		want := IntersectionArea(discs)
		th := rng.Float64() * 2 * math.Pi
		sin, cos := math.Sincos(th)
		rot := make([]Circle, len(discs))
		for i, c := range discs {
			rot[i] = Circle{
				C: Pt(c.C.X*cos-c.C.Y*sin, c.C.X*sin+c.C.Y*cos),
				R: c.R,
			}
		}
		if got := IntersectionArea(rot); !relClose(got, want) {
			t.Fatalf("trial %d: rotated by %g: area %.17g, want %.17g", trial, th, got, want)
		}
	}
}

func TestIntersectionAreaScaleQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 200; trial++ {
		discs := randomDiscSet(rng)
		want := IntersectionArea(discs)
		s := 0.1 + rng.Float64()*10
		scaled := make([]Circle, len(discs))
		for i, c := range discs {
			scaled[i] = Circle{C: Pt(c.C.X*s, c.C.Y*s), R: c.R * s}
		}
		if got := IntersectionArea(scaled); !relClose(got, s*s*want) {
			t.Fatalf("trial %d: scaled by %g: area %.17g, want %.17g", trial, s, got, s*s*want)
		}
	}
}

func TestIntersectionAreaPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	for trial := 0; trial < 200; trial++ {
		discs := randomDiscSet(rng)
		want := IntersectionArea(discs)
		perm := make([]Circle, len(discs))
		for i, j := range rng.Perm(len(discs)) {
			perm[i] = discs[j]
		}
		if got := IntersectionArea(perm); !relClose(got, want) {
			t.Fatalf("trial %d: permuted: area %.17g, want %.17g\ndiscs %v", trial, got, want, discs)
		}
	}
}

// TestIntersectionAreaLastEventWraparound is a regression test for the
// a2 += 2π adjustment on the last sorted event: the arc from the largest
// event angle wraps around to the smallest one, and dropping the 2π would
// corrupt every region whose boundary crosses the ±π atan2 seam. The
// lens here is centred so that disc A's kept arc spans the seam; the
// expected area is the closed-form lens formula.
func TestIntersectionAreaLastEventWraparound(t *testing.T) {
	a := Circle{C: Pt(0, 0), R: 2}
	b := Circle{C: Pt(-3, 0), R: 2}
	// A's clipped arc is centred on atan2 = π: its two events straddle the
	// seam, so the final wrapped interval carries the region boundary.
	want := a.LensArea(b)
	got := IntersectionArea([]Circle{a, b})
	if math.Abs(got-want) > 1e-12*(1+want) {
		t.Fatalf("seam-crossing lens: IntersectionArea = %.17g, want LensArea = %.17g", got, want)
	}
	// And the mirrored configuration (arc centred on atan2 = 0) agrees.
	b2 := Circle{C: Pt(3, 0), R: 2}
	got2 := IntersectionArea([]Circle{a, b2})
	if math.Abs(got2-got) > 1e-12*(1+got) {
		t.Fatalf("seam symmetry: %.17g (seam) vs %.17g (no seam)", got, got2)
	}
}

// TestInAllOthersProbeTolerance is a regression test for the probe
// tolerance in inAllOthers: arc-midpoint probes sit exactly on a circle
// boundary, so a third disc passing within strict-epsilon of the probe
// must not reject the arc. The configuration puts C's boundary a hair
// outside the A∩B lens — the lens area must be unchanged by C, and a
// strict (tolerance-free) probe would have dropped boundary arcs.
func TestInAllOthersProbeTolerance(t *testing.T) {
	a := Circle{C: Pt(0, 0), R: 1}
	b := Circle{C: Pt(1, 0), R: 1}
	want := IntersectionArea([]Circle{a, b})
	// A's kept arc for the lens is centred on angle 0, so its midpoint
	// probe sits at (1, 0). C is near-internally-tangent to A there: the
	// probe lies 1e-9 outside C, inside the 1e-7·(1+R) probe tolerance. A
	// strict probe would reject A's entire boundary arc and collapse the
	// area; the tolerant probe keeps it, changing the lens only by the
	// grazing sliver.
	c := Circle{C: Pt(-2, 0), R: 3 - 1e-9}
	got := IntersectionArea([]Circle{a, b, c})
	// The tolerant probe leaves an O(√band) ≈ 1e-4 drift from the grazing
	// arcs; a strict probe would drop A's whole kept arc and change the
	// area by O(1). Pin the former regime.
	if math.Abs(got-want) > 1e-3*(1+want) {
		t.Fatalf("near-grazing cover disc changed the lens: %.17g, want %.17g", got, want)
	}
}

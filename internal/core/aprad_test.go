package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/dot11"
	"repro/internal/geom"
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
	k, sets := lineWorld()
	_, fastDiag, err := EstimateRadii(k, sets, APRadConfig{MaxRadius: 150})
	if err != nil {
		t.Fatal(err)
	}
	_, slowDiag, err := EstimateRadii(k, sets, APRadConfig{MaxRadius: 150, KeepLowerBounds: true})
	if err != nil {
		t.Fatal(err)
	}
	// Same optimal objective either way (lower bounds never bind at the
	// maximum); the vertex attaining it may differ.
	if math.Abs(fastDiag.Objective-slowDiag.Objective) > 1e-6 {
		t.Errorf("objective: fast %v vs slow %v", fastDiag.Objective, slowDiag.Objective)
	}
	if slowDiag.Constraints <= fastDiag.Constraints {
		t.Error("keeping lower bounds should add constraints")
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
	for _, keep := range []bool{false, true} {
		out, diag, err := EstimateRadii(k, sets, APRadConfig{MaxRadius: 150, KeepLowerBounds: keep})
		if err != nil {
			t.Fatalf("keep=%v: %v", keep, err)
		}
		r1, r2 := knownRange(t, out, mac(1)), knownRange(t, out, mac(2))
		for i, r := range []float64{r1, r2, knownRange(t, out, mac(3))} {
			if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 || r > 150+1e-6 {
				t.Errorf("keep=%v: r%d = %v, want finite in [0, 150]", keep, i+1, r)
			}
		}
		if r1+r2 < 100-1e-6 {
			t.Errorf("keep=%v: r1+r2 = %v, want >= 100", keep, r1+r2)
		}
		if diag.LowerBoundViolations != 0 {
			t.Errorf("keep=%v: violations = %d, want 0", keep, diag.LowerBoundViolations)
		}
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

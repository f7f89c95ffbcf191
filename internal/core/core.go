// Package core implements the digital Marauder's map malicious
// localization algorithms — the paper's primary contribution:
//
//   - M-Loc: locate a mobile device when AP locations and maximum
//     transmission distances are known, by intersecting the APs' maximum
//     coverage discs and returning the centroid of the intersection
//     region's vertex set Δ.
//   - AP-Rad: when only AP locations are known, first estimate the APs'
//     maximum transmission distances with a linear program over pairwise
//     co-observation constraints (maximize Σ rᵢ subject to rᵢ + rⱼ ≥ dᵢⱼ
//     for co-observed pairs and rᵢ + rⱼ < dᵢⱼ otherwise), then call M-Loc.
//   - AP-Loc: when nothing is known, estimate each AP's location from
//     wardriving training tuples by disc intersection with an upper-bound
//     radius, then call AP-Rad and M-Loc.
//
// The package also provides the Centroid and Closest-AP baselines the
// paper compares against. Continuous localization over the observation
// store is internal/engine's job.
package core

import (
	"errors"
	"fmt"

	"repro/internal/apdb"
	"repro/internal/dot11"
	"repro/internal/geom"
)

// APInfo is the attacker's knowledge about one AP: its identity, its
// location, and (when known or estimated) its maximum transmission
// distance. It is an alias of apdb.Entry — the repo-wide single AP
// representation; the SSID field is unused by the algorithms.
type APInfo = apdb.Entry

// Knowledge is the per-attack AP knowledge base (external knowledge, or
// the output of AP-Rad / AP-Loc training): an immutable view over an
// apdb.Snapshot, the struct-of-arrays store behind apdb, core and the
// engine. The zero value is an empty knowledge base. Copying a Knowledge
// copies a pointer; the underlying snapshot never changes.
type Knowledge struct {
	snap *apdb.Snapshot
}

// NewKnowledge builds a Knowledge base from a list of APInfo (later
// duplicates replace earlier ones).
func NewKnowledge(infos []APInfo) Knowledge {
	return KnowledgeFromStore(apdb.FromEntries(infos))
}

// KnowledgeFromStore is a view of the store's current snapshot. Later
// store mutations publish new snapshots and do not affect the view.
func KnowledgeFromStore(s *apdb.Store) Knowledge {
	if s == nil {
		return Knowledge{}
	}
	return Knowledge{snap: s.Snapshot()}
}

// KnowledgeFromSnapshot wraps an already-published snapshot.
func KnowledgeFromSnapshot(sn *apdb.Snapshot) Knowledge {
	return Knowledge{snap: sn}
}

// Snapshot exposes the backing snapshot (the shared empty snapshot for a
// zero Knowledge).
func (k Knowledge) Snapshot() *apdb.Snapshot {
	if k.snap == nil {
		return apdb.EmptySnapshot()
	}
	return k.snap
}

// IsZero reports whether the knowledge base was never populated (no
// backing snapshot). An explicitly built empty base is not zero.
func (k Knowledge) IsZero() bool { return k.snap == nil }

// Len returns the number of known APs.
func (k Knowledge) Len() int { return k.Snapshot().Len() }

// Epoch is the backing snapshot's process-unique generation (0 for a zero
// base). Distinct snapshots always have distinct epochs, so an epoch
// comparison alone detects knowledge change.
func (k Knowledge) Epoch() uint64 { return k.Snapshot().Epoch() }

// Get returns the knowledge about one AP.
func (k Knowledge) Get(m dot11.MAC) (APInfo, bool) { return k.Snapshot().Get(m) }

// All returns every known AP in BSSID order (a fresh slice per call).
func (k Knowledge) All() []APInfo { return k.Snapshot().All() }

// MACs returns every known BSSID in ascending order.
func (k Knowledge) MACs() []dot11.MAC {
	sn := k.Snapshot()
	out := make([]dot11.MAC, sn.Len())
	for i := range out {
		out[i] = sn.MACAt(i)
	}
	return out
}

// Equal reports whether two knowledge bases hold identical entries.
func (k Knowledge) Equal(o Knowledge) bool { return k.Snapshot().Equal(o.Snapshot()) }

// Discs returns the coverage discs of the APs in Γ that are present in the
// knowledge base, using each AP's own MaxRange (or fallbackRange when the
// AP's range is unknown; fallbackRange ≤ 0 skips range-less APs). This is
// the candidate-disc lookup of M-Loc/AP-Rad: O(|Γ| log n) via the
// snapshot, independent of the knowledge-base size.
func (k Knowledge) Discs(gamma []dot11.MAC, fallbackRange float64) []geom.Circle {
	return k.Snapshot().CandidatesFor(make([]geom.Circle, 0, len(gamma)), gamma, fallbackRange)
}

// Positions returns the known positions of the APs in Γ.
func (k Knowledge) Positions(gamma []dot11.MAC) []geom.Point {
	return k.Snapshot().AppendPositions(make([]geom.Point, 0, len(gamma)), gamma)
}

// Estimate is a localization result.
type Estimate struct {
	// Pos is the estimated device location.
	Pos geom.Point `json:"pos"`
	// Vertices is the intersection-region vertex set Δ (M-Loc only).
	Vertices []geom.Point `json:"vertices,omitempty"`
	// K is the number of AP discs used.
	K int `json:"k"`
	// Method names the algorithm that produced the estimate.
	Method string `json:"method"`
}

// Localization errors.
var (
	// ErrNoAPs means Γ contains no AP present in the knowledge base.
	ErrNoAPs = errors.New("core: no usable APs in observation")
	// ErrEmptyRegion means the maximum-coverage discs have an empty
	// intersection (inconsistent knowledge, e.g. underestimated radii).
	ErrEmptyRegion = errors.New("core: empty intersection region")
)

// MLoc is the paper's M-Loc algorithm: given AP locations and maximum
// transmission distances and the observed set Γ of APs communicating with
// the device, compute all pairwise disc-boundary intersection points that
// lie inside every disc (the vertex set Δ) and return their centroid.
//
// With a single usable AP the estimate degenerates to the AP's position
// (the nearest-AP behaviour the paper notes for k = 1).
func MLoc(k Knowledge, gamma []dot11.MAC) (Estimate, error) {
	discs := k.Discs(gamma, 0)
	if len(discs) == 0 {
		return Estimate{}, ErrNoAPs
	}
	verts := geom.RegionVertices(discs)
	if len(verts) == 0 {
		return Estimate{}, fmt.Errorf("mloc with %d discs: %w", len(discs), ErrEmptyRegion)
	}
	c, err := geom.Centroid(verts)
	if err != nil {
		return Estimate{}, err
	}
	return Estimate{Pos: c, Vertices: verts, K: len(discs), Method: "m-loc"}, nil
}

// RegionArea returns the exact area of the intersection region an estimate
// was derived from — the paper's "intersected area" metric (Figs 2, 15).
func RegionArea(k Knowledge, gamma []dot11.MAC) float64 {
	return geom.IntersectionArea(k.Discs(gamma, 0))
}

// RegionCovers reports whether the intersection region of Γ's discs covers
// the point p — the paper's coverage-probability metric (Figs 6, 16).
func RegionCovers(k Knowledge, gamma []dot11.MAC, p geom.Point) bool {
	discs := k.Discs(gamma, 0)
	if len(discs) == 0 {
		return false
	}
	return geom.InAllDiscs(p, discs)
}

package core

import (
	"repro/internal/dot11"
	"repro/internal/geom"
)

// Locator is a localization algorithm mapping the attacker's knowledge and
// an observed AP set Γ to an estimate. MLoc, CentroidBaseline and
// ClosestAPBaseline satisfy this signature; prefer the Localizer interface
// (localizer.go), which names the algorithm and lets AP-Rad / AP-Loc carry
// their training state.
type Locator func(Knowledge, []dot11.MAC) (Estimate, error)

// TrackPoint is one position fix of a tracked device.
type TrackPoint struct {
	// TimeSec is the centre of the observation window.
	TimeSec float64 `json:"timeSec"`
	// Est is the location estimate for that window.
	Est Estimate `json:"est"`
}

// Error returns the Euclidean localization error between an estimate and
// the true position, in metres.
func Error(est Estimate, truth geom.Point) float64 {
	return est.Pos.Dist(truth)
}

package core

import "repro/internal/dot11"

// TrackedLocalizer is a Localizer that serves fixes through a
// RegionTracker.
//
// Deprecated: no localizer implements it; Track fixes every window
// through Locate. It stays only so the engine benchmark module, which
// probes for it, builds.
type TrackedLocalizer interface {
	Localizer
	LocateTracked(k Knowledge, gamma []dot11.MAC, rt *RegionTracker) (Estimate, error)
}

// RegionTracker carried per-trajectory intersection state.
//
// Deprecated: nothing uses it. It stays only so the engine benchmark
// module, which names it in TrackedLocalizer, builds.
type RegionTracker struct{}

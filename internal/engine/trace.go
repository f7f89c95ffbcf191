package engine

import (
	"log/slog"
	"sync"

	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/telemetry/trace"
	"repro/internal/theory"
)

// theorem2Unit memoizes Theorem 2's expected intersected area at unit
// radius by k: E[CA](k, r) scales as r² (the closed form is 8πr²·∫…), so
// one adaptive quadrature per distinct k serves every radius the
// provenance path ever asks about.
var theorem2Unit sync.Map // int -> float64

// theorem2Area evaluates Theorem 2's E[CA] for k communicable APs of mean
// maximum transmission distance meanR. Returns 0 when the theorem does not
// apply (k < 1, no usable radius) or the quadrature fails.
func theorem2Area(k int, meanR float64) float64 {
	if k < 1 || meanR <= 0 {
		return 0
	}
	if v, ok := theorem2Unit.Load(k); ok {
		return v.(float64) * meanR * meanR
	}
	ca, err := theory.IntersectedArea(k, 1)
	if err != nil {
		return 0
	}
	theorem2Unit.Store(k, ca)
	return ca * meanR * meanR
}

// meanRange returns the mean maximum transmission distance of Γ's APs that
// are present in the knowledge base with a usable radius (0 when none are).
func meanRange(k core.Knowledge, gamma []dot11.MAC) float64 {
	sum, n := 0.0, 0
	for _, m := range gamma {
		if in, ok := k.Get(m); ok && in.MaxRange > 0 {
			sum += in.MaxRange
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// finishFix assembles the provenance record of one traced fix and files
// the trace. The expensive fields — the exact intersected area and the
// Theorem 2 quadrature — are computed only here, i.e. only for fixes the
// sampler selected; unsampled and untraced fixes never pay for them.
// know and gen are the knowledge and generation the estimate was actually
// computed against (not re-read, so a concurrent SetKnowledge cannot
// misattribute the area).
func (e *Engine) finishFix(tr *trace.Trace, dev dot11.MAC, gamma []dot11.MAC,
	know core.Knowledge, gen uint64, est core.Estimate, err error, hit bool, start, end float64) {
	if tr == nil {
		return
	}
	sp := tr.StartSpan("provenance")
	p := &trace.Provenance{
		Device:       dev.String(),
		Algorithm:    e.loc.Name(),
		Gamma:        macStrings(gamma),
		K:            est.K,
		WindowStart:  start,
		WindowEnd:    end,
		CacheHit:     hit,
		KnowledgeGen: gen,
		Training:     e.lastTrain.Load(),
	}
	if p.K == 0 {
		p.K = len(gamma)
	}
	if err != nil {
		p.Err = err.Error()
	} else {
		p.Located = true
		p.PosX, p.PosY = est.Pos.X, est.Pos.Y
		p.VertexCount = len(est.Vertices)
	}
	if len(gamma) > 0 {
		p.MeanRadiusM = meanRange(know, gamma)
		p.IntersectedAreaM2 = core.RegionArea(know, gamma)
		p.Theorem2AreaM2 = theorem2Area(p.K, p.MeanRadiusM)
	}
	sp.End()
	tr.Finish(p)
	slog.Debug("localization traced",
		"component", "engine", trace.LogKey, tr.ID(),
		"device", p.Device, "algo", p.Algorithm, "k", p.K,
		"cache_hit", hit, "located", p.Located)
}

func macStrings(ms []dot11.MAC) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.String()
	}
	return out
}

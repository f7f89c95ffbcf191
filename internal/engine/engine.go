// Package engine owns the digital Marauder's map pipeline: it ingests
// captured frames into the observation store, keeps the localization
// knowledge trained as observations accumulate, and localizes devices —
// one of them, or every device of a map frame in parallel across a worker
// pool. Every front-end (cmd/marauder, cmd/replay, the map server loop,
// the examples) drives this type instead of hand-wiring
// capture→ingest→localize itself.
//
// The engine memoizes estimates by canonicalized Γ: localization is a
// pure function of (knowledge, Γ), identical AP sets recur constantly
// across windows and devices, and knowledge changes are explicit
// (SetKnowledge / RefreshKnowledge), so the cache is invalidated exactly
// when the knowledge base changes.
package engine

import (
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/obs"
	"repro/internal/sniffer"
	"repro/internal/telemetry/trace"
)

// Config assembles an Engine.
type Config struct {
	// Know is the AP knowledge base. For trained algorithms (AP-Rad,
	// AP-Loc) it is the training base — positions without radii, or nil —
	// and the working knowledge is produced by RefreshKnowledge.
	Know core.Knowledge
	// Store supplies the observations; nil creates an empty store.
	Store *obs.Store
	// Localizer is the algorithm; nil means M-Loc.
	Localizer core.Localizer
	// WindowSec is the observation window width; a device's Γ for a fix
	// at time t is everything observed in [t−WindowSec/2, t+WindowSec/2).
	// Required.
	WindowSec float64
	// Workers caps snapshot parallelism; ≤ 0 means GOMAXPROCS.
	Workers int
	// CacheSize caps the Γ-memoization cache entry count. 0 means the
	// default (4096); negative disables caching.
	CacheSize int
	// Tracer samples localizations into per-estimate traces and
	// provenance records. nil disables tracing at zero cost.
	Tracer *trace.Tracer
	// RefreshAttempts caps how many times one RefreshKnowledge call tries
	// the training run before giving up; 0 means the default (3).
	RefreshAttempts int
	// RefreshBackoff is the first retry's delay, doubled per further
	// attempt; 0 means the default (25ms), negative disables the sleep.
	RefreshBackoff time.Duration
	// StageSampleEvery times the fix-path stage histograms
	// (marauder_stage_seconds, marauder_fix_seconds) on every Nth fix:
	// 0 means the default (16), 1 times every fix, negative disables
	// stage timing. Unsampled fixes pay one atomic add.
	StageSampleEvery int
	// StaleIngestAfter flags a capture source (the local sniffer fleet or
	// a remote capwire agent) as stale in Health when it has delivered
	// nothing for this long after having delivered at least once — so a
	// silently dead capture path degrades /api/health instead of starving
	// the map quietly. 0 disables the check.
	StaleIngestAfter time.Duration
}

// Engine runs the concurrent ingest→observe→localize pipeline. It is safe
// for concurrent use: captures may stream in while snapshots run.
type Engine struct {
	loc       core.Localizer
	windowSec float64
	workers   int

	mu    sync.RWMutex
	store *obs.Store
	base  core.Knowledge // immutable training base
	know  core.Knowledge // active working knowledge

	cache  *gammaCache
	tracer *trace.Tracer

	// rejects is the bounded quarantine for corrupt/undecodable captures.
	rejects quarantine

	// srcMu guards sources, the per-capture-source delivery liveness used
	// by Health to flag silently dead paths (see sources.go).
	srcMu      sync.Mutex
	sources    map[string]*sourceState
	staleAfter time.Duration

	// refreshAttempts/refreshBackoff bound RefreshKnowledge's retry loop.
	refreshAttempts int
	refreshBackoff  time.Duration

	fixes     atomic.Uint64
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64

	// stageEvery/stageCtr drive deterministic 1-in-N stage timing on the
	// fix path; stageEvery 0 disables it.
	stageEvery uint64
	stageCtr   atomic.Uint64

	// trainedOnce flips when a training run first succeeds: from then on a
	// failed refresh degrades to the last-known-good knowledge instead of
	// erroring the pipeline.
	trainedOnce   atomic.Bool
	refreshRetry  atomic.Uint64
	refreshFail   atomic.Uint64 // consecutive failed RefreshKnowledge calls
	refreshFellBk atomic.Uint64

	// knowGen counts knowledge-base swaps; every estimate's provenance
	// carries the generation it was computed against.
	knowGen atomic.Uint64
	// lastTrain is the provenance of the latest RefreshKnowledge run.
	lastTrain atomic.Pointer[trace.TrainingInfo]
}

// Stats counts engine work since construction.
type Stats struct {
	// Fixes is the number of localization requests answered (cached or
	// computed), successful or not.
	Fixes uint64
	// CacheHits is how many of them were served from the Γ cache.
	CacheHits uint64
	// CacheMisses is how many ran the localization algorithm.
	CacheMisses uint64
	// CacheEvictions is how many cache entries were dropped — by the
	// wholesale refill at the size cap or by knowledge invalidation.
	CacheEvictions uint64
	// Workers is the resolved snapshot worker-pool size.
	Workers int
	// ObsShards is the observation store's shard count.
	ObsShards int
	// ObsRecords is the observation store's pairwise record count.
	ObsRecords int
	// KnowledgeGen counts knowledge-base swaps since construction — the
	// generation the provenance of new estimates references.
	KnowledgeGen uint64
	// Quarantined is the number of captures diverted to the reject queue
	// instead of ingested.
	Quarantined uint64
}

// logWorkersOnce makes the resolved-worker startup log fire once per
// process: on a 1-vCPU box the GOMAXPROCS default silently serializes
// snapshots, and the log line is what makes that self-explaining.
var logWorkersOnce sync.Once

// New builds an Engine and validates the configuration.
func New(cfg Config) (*Engine, error) {
	if cfg.WindowSec <= 0 {
		return nil, fmt.Errorf("engine: WindowSec must be > 0, got %v", cfg.WindowSec)
	}
	loc := cfg.Localizer
	if loc == nil {
		loc = core.MLocalizer{}
	}
	store := cfg.Store
	if store == nil {
		store = obs.NewStore()
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	mWorkers.Set(float64(workers))
	logWorkersOnce.Do(func() {
		slog.Info("engine worker pool resolved",
			"component", "engine",
			"workers", workers,
			"configured", cfg.Workers,
			"gomaxprocs", runtime.GOMAXPROCS(0),
			"algo", loc.Name())
	})
	attempts := cfg.RefreshAttempts
	if attempts <= 0 {
		attempts = 3
	}
	backoff := cfg.RefreshBackoff
	if backoff == 0 {
		backoff = 25 * time.Millisecond
	} else if backoff < 0 {
		backoff = 0
	}
	stageEvery := uint64(16)
	switch {
	case cfg.StageSampleEvery < 0:
		stageEvery = 0
	case cfg.StageSampleEvery > 0:
		stageEvery = uint64(cfg.StageSampleEvery)
	}
	e := &Engine{
		loc:             loc,
		windowSec:       cfg.WindowSec,
		workers:         workers,
		store:           store,
		base:            cfg.Know,
		know:            cfg.Know,
		tracer:          cfg.Tracer,
		refreshAttempts: attempts,
		refreshBackoff:  backoff,
		stageEvery:      stageEvery,
		staleAfter:      max(cfg.StaleIngestAfter, 0),
	}
	if cfg.CacheSize >= 0 {
		size := cfg.CacheSize
		if size == 0 {
			size = defaultCacheSize
		}
		e.cache = newGammaCache(size)
	}
	return e, nil
}

// Localizer returns the engine's algorithm.
func (e *Engine) Localizer() core.Localizer { return e.loc }

// Tracer returns the engine's tracer (nil when tracing is disabled), so
// front-ends can serve its ring dump and per-device explanations.
func (e *Engine) Tracer() *trace.Tracer { return e.tracer }

// LastTraining returns the provenance of the most recent RefreshKnowledge
// run, or nil before the first one (and for untrained algorithms).
func (e *Engine) LastTraining() *trace.TrainingInfo { return e.lastTrain.Load() }

// Store returns the observation store the engine ingests into. The store
// is safe for concurrent use, so callers may also feed or query it
// directly.
func (e *Engine) Store() *obs.Store {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.store
}

// Ingest feeds one captured frame into the observation store.
func (e *Engine) Ingest(timeSec float64, f *dot11.Frame, fromAP bool) {
	mFramesIngested.Inc()
	e.Store().Ingest(timeSec, f, fromAP)
}

// IngestCaptures feeds a batch of sniffer captures through the store's
// batched ingest path — grouped by shard, one lock acquisition per shard
// per batch instead of one per frame — and returns how many were ingested.
//
// Corrupt captures never poison the store: a capture without a decoded
// frame gets one decode attempt from its raw bytes and is otherwise
// diverted to the counted quarantine queue (see Quarantine) instead of
// erroring the batch or silently disappearing.
func (e *Engine) IngestCaptures(caps []sniffer.Capture) int {
	return e.IngestCapturesFrom(SourceLocal, caps)
}

// IngestCapturesFrom is IngestCaptures with an explicit capture-source
// name (SourceLocal for the in-process sniffers, "agent:<id>" for remote
// capwire agents). Any non-empty delivery — even one that quarantines
// every capture — marks the source alive, because the path itself worked;
// content problems are the quarantine counters' job.
func (e *Engine) IngestCapturesFrom(source string, caps []sniffer.Capture) int {
	if len(caps) == 0 {
		return 0
	}
	if source != "" {
		e.markSource(source, len(caps))
	}
	ingestStart := time.Now()
	defer mStageIngest.ObserveSince(ingestStart)
	var tr *trace.Trace
	if e.tracer != nil {
		tr = e.tracer.Start(trace.KindIngest, "")
	}
	sp := tr.StartSpan("ingest").Attr("frames", len(caps))
	batch := make([]obs.FrameCapture, 0, len(caps))
	quarantined := 0
	for _, c := range caps {
		if c.Frame == nil {
			var reason string
			if len(c.Raw) > 0 {
				if f, err := dot11.Decode(c.Raw); err == nil {
					c.Frame = f
				} else {
					reason = ReasonUndecodable
				}
			} else {
				reason = ReasonMissingFrame
			}
			if reason != "" {
				e.rejects.add(QuarantinedCapture{
					TimeSec:     c.TimeSec,
					Reason:      reason,
					RawLen:      len(c.Raw),
					CardChannel: c.CardChannel,
				})
				mQuarantined(reason).Inc()
				quarantined++
				continue
			}
		}
		batch = append(batch, obs.FrameCapture{TimeSec: c.TimeSec, Frame: c.Frame, FromAP: c.FromAP})
	}
	e.Store().IngestFrames(batch)
	if quarantined > 0 {
		sp.Attr("quarantined", quarantined)
	}
	sp.End()
	tr.Finish(nil)
	mFramesIngested.Add(uint64(len(batch)))
	return len(batch)
}

// Quarantine reports the reject queue: totals per reason and the newest
// retained samples.
func (e *Engine) Quarantine() QuarantineStats { return e.rejects.stats() }

// ResetObservations discards all accumulated observations (a fresh store)
// while keeping knowledge and cache: localization is a function of
// (knowledge, Γ) only, so previously memoized Γ keys stay valid.
func (e *Engine) ResetObservations() {
	e.mu.Lock()
	// Keep the configured shard count: a reset changes the contents, not
	// the store's concurrency shape.
	e.store = obs.NewStoreShards(e.store.ShardCount())
	e.mu.Unlock()
}

// Knowledge returns the active working knowledge base.
func (e *Engine) Knowledge() core.Knowledge {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.know
}

// SetKnowledge swaps in a new working knowledge base and invalidates the
// Γ cache. Invalidation is exact: when the new base holds the same entries
// as the current one — the common case of a retrain over unchanged
// observations — nothing changed that a cached estimate could depend on,
// so the generation is kept and the cache survives. The snapshot-epoch
// fast path makes the unchanged check O(1) when the base is literally the
// same snapshot, falling back to a content comparison otherwise.
func (e *Engine) SetKnowledge(k core.Knowledge) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if k.Epoch() == e.know.Epoch() || k.Equal(e.know) {
		e.know = k
		return
	}
	// The swap, the generation bump and the cache's move to the new
	// generation happen under one lock, so a fix that read the old base
	// can neither be served from nor written into the new generation.
	e.know = k
	gen := e.knowGen.Add(1)
	if e.cache != nil {
		if dropped := e.cache.invalidate(gen); dropped > 0 {
			e.evictions.Add(uint64(dropped))
			mCacheEvictions.Add(uint64(dropped))
		}
	}
}

// RefreshKnowledge re-trains the working knowledge from everything
// observed so far when the algorithm learns from observations (AP-Rad
// estimates radii, AP-Loc estimates positions too). For algorithms that
// take knowledge as given it is a no-op.
//
// A failed training run no longer wedges the pipeline: the run is retried
// up to Config.RefreshAttempts times with exponential backoff, and once
// any training run has ever succeeded, exhausting the retries degrades to
// the last-known-good knowledge (returning nil, counted in Health as a
// fallback) instead of surfacing the error. Before the first success
// there is nothing good to fall back on, so the error propagates.
func (e *Engine) RefreshKnowledge() error {
	trainer, ok := e.loc.(core.KnowledgeTrainer)
	if !ok {
		return nil
	}
	var err error
	for attempt := 0; attempt < e.refreshAttempts; attempt++ {
		if attempt > 0 {
			e.refreshRetry.Add(1)
			mRefreshRetries.Inc()
			if e.refreshBackoff > 0 {
				time.Sleep(e.refreshBackoff << (attempt - 1))
			}
		}
		if err = e.refreshOnce(trainer); err == nil {
			e.trainedOnce.Store(true)
			e.refreshFail.Store(0)
			return nil
		}
	}
	e.refreshFail.Add(1)
	if e.trainedOnce.Load() {
		e.refreshFellBk.Add(1)
		mRefreshFallbacks.Inc()
		slog.Warn("knowledge refresh failed; keeping last-known-good knowledge",
			"component", "engine",
			"algo", e.loc.Name(),
			"attempts", e.refreshAttempts,
			"gen", e.knowGen.Load(),
			"err", err)
		return nil
	}
	return err
}

// refreshOnce runs one training attempt end to end.
func (e *Engine) refreshOnce(trainer core.KnowledgeTrainer) error {
	var tr *trace.Trace
	if e.tracer != nil {
		tr = e.tracer.Start(trace.KindRefresh, "")
	}
	start := time.Now()
	e.mu.RLock()
	base := e.base
	store := e.store
	e.mu.RUnlock()
	sp := tr.StartSpan("knowledge")
	var (
		trained   core.Knowledge
		diag      core.TrainDiag
		diagnosed bool
		err       error
	)
	if dt, ok := trainer.(core.DiagnosedTrainer); ok {
		trained, diag, err = dt.TrainDiagnosed(base, store.DeviceAPSets())
		diagnosed = true
	} else {
		trained, err = trainer.Train(base, store.DeviceAPSets())
	}
	if err != nil {
		sp.Attr("err", err.Error())
		sp.End()
		tr.Finish(nil)
		return fmt.Errorf("engine: refresh knowledge: %w", err)
	}
	e.SetKnowledge(trained)
	info := &trace.TrainingInfo{
		Algorithm:  e.loc.Name(),
		Gen:        e.knowGen.Load(),
		DurationMs: float64(time.Since(start).Microseconds()) / 1e3,
	}
	if diagnosed {
		info.Constraints = diag.Constraints
		info.LPIterations = diag.LPIterations
		info.LowerBoundViolations = diag.LowerBoundViolations
		info.Objective = diag.Objective
	}
	e.lastTrain.Store(info)
	sp.Attr("gen", info.Gen).
		Attr("constraints", info.Constraints).
		Attr("lp_iterations", info.LPIterations)
	sp.End()
	tr.Finish(nil)
	mRefreshes.Inc()
	mRefreshSeconds.ObserveSince(start)
	return nil
}

// locateGamma answers one localization request, through the Γ cache when
// enabled. gamma must be in APSetWindow's canonical (ascending, deduped)
// order; the cache key is its byte concatenation. It returns the knowledge
// and generation the estimate was computed against (so traced callers
// attribute the provenance to the right base) and whether the cache
// answered. tr may be nil (untraced).
func (e *Engine) locateGamma(gamma []dot11.MAC, tr *trace.Trace) (est core.Estimate, know core.Knowledge, gen uint64, hit bool, err error) {
	e.fixes.Add(1)
	mFixes.Inc()
	if len(gamma) == 0 {
		return core.Estimate{}, core.Knowledge{}, 0, false, core.ErrNoAPs
	}
	// Knowledge and generation are read together, so the cache can refuse
	// an estimate whose base a concurrent SetKnowledge swapped out.
	e.mu.RLock()
	know, gen = e.know, e.knowGen.Load()
	e.mu.RUnlock()
	sp := tr.StartSpan("localize")
	defer sp.End()
	if e.cache == nil {
		e.misses.Add(1)
		mCacheMisses.Inc()
		est, err = e.loc.Locate(know, gamma)
		sp.Attr("cache_hit", false)
		return est, know, gen, false, err
	}
	var keyBuf [keyBufMACs * len(dot11.MAC{})]byte
	key := gammaKey(keyBuf[:0], gamma)
	if est, err, ok := e.cache.get(key, gen); ok {
		e.hits.Add(1)
		mCacheHits.Inc()
		sp.Attr("cache_hit", true)
		return est, know, gen, true, err
	}
	e.misses.Add(1)
	mCacheMisses.Inc()
	est, err = e.loc.Locate(know, gamma)
	if evicted := e.cache.put(key, gen, est, err); evicted > 0 {
		e.evictions.Add(uint64(evicted))
		mCacheEvictions.Add(uint64(evicted))
	}
	sp.Attr("cache_hit", false)
	return est, know, gen, false, err
}

// fixWindow answers one localization over [start, end): the traced
// window-query → localize → provenance chain shared by Fix, FixRange,
// Track and the snapshot workers. buf is the reusable Γ buffer (pass
// buf[:0] in loops); the possibly-grown buffer is returned for reuse.
// With tracing disabled the only cost over the raw path is one nil check.
func (e *Engine) fixWindow(buf []dot11.MAC, dev dot11.MAC, start, end float64) ([]dot11.MAC, core.Estimate, error) {
	var tr *trace.Trace
	if e.tracer != nil {
		tr = e.tracer.Start(trace.KindFix, dev.String())
	}
	// Deterministic 1-in-N stage timing: adjacent stages share clock
	// reads, so a timed fix costs four time.Now calls and an untimed one
	// costs a single atomic add.
	timed := e.stageEvery != 0 && e.stageCtr.Add(1)%e.stageEvery == 0
	var t0, t1, t2 time.Time
	if timed {
		t0 = time.Now()
	}
	if tr != nil {
		sp := tr.StartSpan("window-query")
		buf = e.Store().AppendAPSetWindowTrace(buf, dev, start, end, sp)
		sp.End()
	} else {
		buf = e.Store().AppendAPSetWindow(buf, dev, start, end)
	}
	if timed {
		t1 = time.Now()
		mStageWindow.Observe(t1.Sub(t0).Seconds())
	}
	est, know, gen, hit, err := e.locateGamma(buf, tr)
	if timed {
		// A cache hit's lookup time is localization cost too.
		t2 = time.Now()
		mStageLocalize.Observe(t2.Sub(t1).Seconds())
	}
	e.finishFix(tr, dev, buf, know, gen, est, err, hit, start, end)
	if timed {
		t3 := time.Now()
		mStageTrace.Observe(t3.Sub(t2).Seconds())
		mFixSeconds.Observe(t3.Sub(t0).Seconds())
	}
	if err != nil && !errors.Is(err, core.ErrNoAPs) {
		mFixErrors.Inc()
	}
	return buf, est, err
}

// Fix estimates the device's position from the observations in the window
// centred at timeSec.
func (e *Engine) Fix(dev dot11.MAC, timeSec float64) (core.Estimate, error) {
	return e.FixRange(dev, timeSec-e.windowSec/2, timeSec+e.windowSec/2)
}

// FixRange estimates the device's position from the observations with
// start ≤ t < end.
func (e *Engine) FixRange(dev dot11.MAC, start, end float64) (core.Estimate, error) {
	_, est, err := e.fixWindow(nil, dev, start, end)
	return est, err
}

// Track produces fixes for the device every stepSec over [startSec,
// endSec]; windows without observations or with failing localization are
// skipped. Steps are computed as startSec + i·stepSec (no float
// accumulation drift).
func (e *Engine) Track(dev dot11.MAC, startSec, endSec, stepSec float64) ([]core.TrackPoint, error) {
	if stepSec <= 0 {
		return nil, fmt.Errorf("engine: Track needs stepSec > 0")
	}
	var out []core.TrackPoint
	var buf []dot11.MAC
	for i := 0; ; i++ {
		ts := startSec + float64(i)*stepSec
		if ts > endSec {
			break
		}
		var est core.Estimate
		var err error
		buf, est, err = e.fixWindow(buf[:0], dev, ts-e.windowSec/2, ts+e.windowSec/2)
		if err != nil {
			continue
		}
		out = append(out, core.TrackPoint{TimeSec: ts, Est: est})
	}
	return out, nil
}

// Snapshot locates every device with observations in the window centred
// at timeSec — one full frame of the Marauder's map — fanning the devices
// out across the worker pool. Devices whose localization fails are
// omitted. The result is identical to localizing sequentially.
func (e *Engine) Snapshot(timeSec float64) map[dot11.MAC]core.Estimate {
	return e.SnapshotRange(timeSec-e.windowSec/2, timeSec+e.windowSec/2)
}

// SnapshotRange is Snapshot over an explicit observation range — e.g. the
// whole capture history when replaying an attack offline.
//
// Workers claim device indices from one atomic counter and write each
// result into that device's slot, so the fan-out needs no channel and no
// lock; the map is built once every worker is done. The calling
// goroutine is one of the workers, so a one-worker frame starts none.
func (e *Engine) SnapshotRange(start, end float64) map[dot11.MAC]core.Estimate {
	began := time.Now()
	defer func() {
		mSnapshots.Inc()
		mSnapshotSeconds.ObserveSince(began)
	}()
	store := e.Store()
	scanStart := time.Now()
	devs := store.Devices()
	mStageScan.ObserveSince(scanStart)
	type slot struct {
		est core.Estimate
		ok  bool
	}
	slots := make([]slot, len(devs))
	var next atomic.Int64
	work := func() {
		var buf []dot11.MAC
		for {
			i := int(next.Add(1) - 1)
			if i >= len(devs) {
				return
			}
			var err error
			buf, slots[i].est, err = e.fixWindow(buf[:0], devs[i], start, end)
			slots[i].ok = err == nil
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(e.workers, len(devs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	out := make(map[dot11.MAC]core.Estimate, len(devs))
	for i, dev := range devs {
		if slots[i].ok {
			out[dev] = slots[i].est
		}
	}
	return out
}

// Stats reports fix and cache counters plus the store's shard shape.
func (e *Engine) Stats() Stats {
	store := e.Store()
	return Stats{
		Fixes:          e.fixes.Load(),
		CacheHits:      e.hits.Load(),
		CacheMisses:    e.misses.Load(),
		CacheEvictions: e.evictions.Load(),
		Workers:        e.workers,
		ObsShards:      store.ShardCount(),
		ObsRecords:     store.Len(),
		KnowledgeGen:   e.knowGen.Load(),
		Quarantined:    e.rejects.stats().Total,
	}
}

// Health reports the engine's degraded-vs-healthy state: the pipeline is
// degraded while knowledge refreshes keep failing (the map is being drawn
// from stale last-known-good knowledge). Quarantined captures are
// reported but do not degrade health by themselves — diverting corrupt
// input is the engine doing its job.
func (e *Engine) Health() Health {
	h := Health{
		Healthy:                    true,
		Quarantined:                e.rejects.stats().Total,
		RefreshRetries:             e.refreshRetry.Load(),
		RefreshFallbacks:           e.refreshFellBk.Load(),
		ConsecutiveRefreshFailures: e.refreshFail.Load(),
		KnowledgeGen:               e.knowGen.Load(),
		TrainedOnce:                e.trainedOnce.Load(),
	}
	if _, trains := e.loc.(core.KnowledgeTrainer); !trains {
		h.TrainedOnce = true
	}
	if n := h.ConsecutiveRefreshFailures; n > 0 {
		h.Healthy = false
		h.Reasons = append(h.Reasons,
			fmt.Sprintf("knowledge refresh failing (%d consecutive, serving generation %d)",
				n, h.KnowledgeGen))
	}
	h.Sources = e.sourceHealth(time.Now())
	if stale := staleSourceReasons(h.Sources); len(stale) > 0 {
		h.Healthy = false
		h.Reasons = append(h.Reasons, stale...)
	}
	return h
}

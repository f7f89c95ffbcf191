package engine

import "repro/internal/telemetry"

// Process-wide pipeline metrics, registered at package init so an
// exposition endpoint serves the full engine series set from the first
// scrape. Several engines in one process share these series (the gauge is
// last-engine-wins); the per-engine view stays available through
// Engine.Stats.
var (
	mFramesIngested = telemetry.Default().Counter(
		"marauder_engine_frames_ingested_total",
		"Captured frames fed into the observation store through the engine.", nil)
	mSnapshots = telemetry.Default().Counter(
		"marauder_engine_snapshots_total",
		"Full map-frame snapshots taken.", nil)
	mSnapshotSeconds = telemetry.Default().Histogram(
		"marauder_engine_snapshot_seconds",
		"Wall time per map-frame snapshot.", telemetry.LatencyBuckets(), nil)
	mWorkers = telemetry.Default().Gauge(
		"marauder_engine_workers",
		"Resolved snapshot worker-pool size (Config.Workers after the GOMAXPROCS default).", nil)
	mFixes = telemetry.Default().Counter(
		"marauder_engine_fixes_total",
		"Localization requests answered, cached or computed, successful or not.", nil)
	mCacheHits = telemetry.Default().Counter(
		"marauder_engine_cache_hits_total",
		"Fixes served from the Γ-memoization cache.", nil)
	mCacheMisses = telemetry.Default().Counter(
		"marauder_engine_cache_misses_total",
		"Fixes that ran the localization algorithm.", nil)
	mCacheEvictions = telemetry.Default().Counter(
		"marauder_engine_cache_evictions_total",
		"Γ-cache entries dropped by wholesale refill or knowledge invalidation.", nil)
	mRefreshes = telemetry.Default().Counter(
		"marauder_engine_knowledge_refresh_total",
		"Knowledge re-training runs (RefreshKnowledge on a trained algorithm).", nil)
	mRefreshSeconds = telemetry.Default().Histogram(
		"marauder_engine_knowledge_refresh_seconds",
		"Wall time per knowledge re-training run.", telemetry.LatencyBuckets(), nil)
	mRefreshRetries = telemetry.Default().Counter(
		"marauder_engine_knowledge_refresh_retries_total",
		"Knowledge re-training attempts beyond the first within one RefreshKnowledge call.", nil)
	mRefreshFallbacks = telemetry.Default().Counter(
		"marauder_engine_knowledge_refresh_fallbacks_total",
		"RefreshKnowledge calls that exhausted retries and kept the last-known-good knowledge.", nil)
)

// Per-stage wall-time histograms for the fix/ingest hot paths — the
// always-on version of the stage durations sampled traces carry, so the
// engine-level cost breakdown is a /metrics scrape away. Fix-path stages
// (window_assembly, localize, trace_record) are sampled
// 1-in-N (Config.StageSampleEvery) to keep the cached-fix path inside
// the perf gate; batch-level stages (store_scan, ingest) are timed on
// every occurrence. All stages share one sampling rate, so stage *shares*
// computed from the sums are unbiased.
var (
	mStageWindow   = stageSeconds("window_assembly")
	mStageLocalize = stageSeconds("localize")
	mStageTrace    = stageSeconds("trace_record")
	mStageScan     = stageSeconds("store_scan")
	mStageIngest   = stageSeconds("ingest")
	mFixSeconds    = telemetry.Default().Histogram(
		"marauder_fix_seconds",
		"End-to-end wall time per localization fix (sampled 1-in-N with the stage histograms).",
		telemetry.LatencyBuckets(), nil)
	mFixErrors = telemetry.Default().Counter(
		"marauder_engine_fix_errors_total",
		"Fixes that failed for a reason other than an empty observation window.", nil)
)

// stageSeconds returns the marauder_stage_seconds instance for one stage.
func stageSeconds(stage string) *telemetry.Histogram {
	return telemetry.Default().Histogram(
		"marauder_stage_seconds",
		"Wall time per pipeline stage (fix-path stages sampled 1-in-N, see Config.StageSampleEvery).",
		telemetry.LatencyBuckets(),
		telemetry.Labels{"stage": stage})
}

// mQuarantined counts captures diverted to the reject queue, by reason.
func mQuarantined(reason string) *telemetry.Counter {
	return telemetry.Default().Counter(
		"marauder_engine_quarantined_total",
		"Captures quarantined instead of ingested, by reason.",
		telemetry.Labels{"reason": reason})
}

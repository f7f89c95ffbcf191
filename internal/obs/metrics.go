package obs

import (
	"strconv"

	"repro/internal/telemetry"
)

// Process-wide observation-store metrics. All stores in the process share
// these series; they answer the operational questions the store itself
// can't — is ingest keeping up, are captures arriving out of order (each
// one forces a re-sort on the next window query), how large the ingest
// batches actually are, and whether the MAC hash balances the shards.
// What a window query costs is the engine's sampled
// marauder_stage_seconds{stage="window_assembly"}.
var (
	mRecords = telemetry.Default().Counter(
		"marauder_obs_records_total",
		"Pairwise device-AP observation records appended.", nil)
	mOutOfOrder = telemetry.Default().Counter(
		"marauder_obs_out_of_order_total",
		"Records that arrived behind their device log's tail, marking it for re-sort.", nil)
	mResorts = telemetry.Default().Counter(
		"marauder_obs_resorts_total",
		"Device logs re-sorted by a window query after out-of-order ingest.", nil)
	mBatchFrames = telemetry.Default().Histogram(
		"marauder_obs_ingest_batch_size",
		"Items per batched ingest call (IngestFrames / IngestBatch).",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096}, nil)
	mIngestSeconds = telemetry.Default().Histogram(
		"marauder_obs_ingest_batch_seconds",
		"Wall time per batched ingest call, shard lock waits included.",
		telemetry.LatencyBuckets(), nil)
	mCkptWrites = telemetry.Default().Counter(
		"marauder_checkpoint_writes_total",
		"Observation checkpoints written successfully.", nil)
	mCkptFailures = telemetry.Default().Counter(
		"marauder_checkpoint_failures_total",
		"Observation checkpoint attempts that failed.", nil)
	mCkptGeneration = telemetry.Default().Gauge(
		"marauder_checkpoint_generation",
		"Generation number of the newest written observation checkpoint.", nil)
)

// shardRecordGauge returns the per-shard record gauge. Like the engine
// gauges, several stores in one process share a series per shard index
// (last writer wins); per-store counts stay available via ShardLens.
func shardRecordGauge(i int) *telemetry.Gauge {
	return telemetry.Default().Gauge(
		"marauder_obs_shard_records",
		"Pairwise records held, by shard index.",
		telemetry.Labels{"shard": strconv.Itoa(i)})
}

package wal

import (
	"time"

	"chc/internal/telemetry"
)

// Process-wide telemetry mirrors of the per-log I/O counters. Each WAL
// keeps its own tallies (surfaced through Stats, the compatibility
// accessor); the shared increment sites also feed these registry series.
var (
	mAppends = telemetry.Default().Counter("chc_wal_appends_total",
		"Records appended across all write-ahead logs.")
	mSyncs = telemetry.Default().Counter("chc_wal_fsyncs_total",
		"Group-commit fsyncs across all write-ahead logs.")
	// Wide buckets: injected fsync delays and genuinely sick disks push
	// group-commit latencies far past the default latency range.
	mFsyncSeconds = telemetry.Default().Histogram("chc_wal_fsync_seconds",
		"Latency of one flush+fsync group commit.", telemetry.WideBuckets)
	mCommitRecords = telemetry.Default().Histogram("chc_wal_commit_records",
		"Records made durable by one fsync (the group-commit batch size).",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256})
	mReplayRecords = telemetry.Default().Counter("chc_wal_replay_records_total",
		"Intact records decoded while replaying logs after a restart.")
	mReplayTorn = telemetry.Default().Counter("chc_wal_replay_torn_tails_total",
		"Replays that ended at a torn (truncated or CRC-corrupt) tail record.")
	mCheckpoints = telemetry.Default().Counter("chc_wal_checkpoints_total",
		"Snapshots published by checkpoint rotation and degraded-mode re-arm.")
	mSegmentsDeleted = telemetry.Default().Counter("chc_wal_segments_deleted_total",
		"Rotated segments deleted by compaction (covered by the previous snapshot).")
	mCheckpointFallbacks = telemetry.Default().Counter("chc_wal_checkpoint_fallbacks_total",
		"Replays that found the current checkpoint torn and fell back to the previous one.")
)

// observeFsync records the duration of one group commit; the caller measures
// it only when telemetry or tracing is live, so the disabled path never calls
// time.Now.
func observeFsync(d time.Duration) {
	mFsyncSeconds.ObserveDuration(d)
	if telemetry.TraceOn() {
		telemetry.Emit("wal.fsync", map[string]any{"dur_ns": d.Nanoseconds()})
	}
}

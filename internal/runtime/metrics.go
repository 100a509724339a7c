package runtime

import "chc/internal/telemetry"

// Process-wide telemetry for the concurrent runtime. ClusterStats remains
// the compatibility accessor for per-cluster counts; these registry series
// aggregate across every cluster in the process and feed /metrics.
var (
	mSends = telemetry.Default().Counter("chc_runtime_sends_total",
		"Protocol messages handed to the network by node contexts.")
	mMailboxDepth = telemetry.Default().Gauge("chc_runtime_mailbox_depth",
		"Protocol messages queued in node mailboxes, process-wide.")
	mRestarts = telemetry.Default().Counter("chc_runtime_restarts_total",
		"Nodes relaunched from their write-ahead log after a planned kill.")
	mRecoverySeconds = telemetry.Default().Histogram("chc_runtime_recovery_seconds",
		"Relaunch latency: WAL replay through reliable-link resumption (excludes planned downtime).", nil)
	mRecoveryFailures = telemetry.Default().Counter("chc_runtime_recovery_failures_total",
		"Relaunch attempts that failed (corrupt WAL, replay nondeterminism, panic).")
	mReconnects = telemetry.Default().Counter("chc_tcp_reconnects_total",
		"Successful TCP redials after a broken link.")
	mLinkFaults = telemetry.Default().Counter("chc_tcp_link_faults_total",
		"TCP link faults observed: write failures, mid-frame truncation, bad handshakes.")
	mDurabilityFaults = telemetry.Default().Counter("chc_runtime_durability_faults_total",
		"WAL write/fsync failures observed on the delivery path.")
	mFailStops = telemetry.Default().Counter("chc_runtime_failstops_total",
		"Nodes fail-stopped on durability failure (became crash faults).")
	mDegradations = telemetry.Default().Counter("chc_runtime_degradations_total",
		"Nodes quarantined into non-durable (degraded) mode.")
	mRearms = telemetry.Default().Counter("chc_runtime_rearms_total",
		"Degraded nodes whose WAL durability was successfully restored.")
	mBarrierWait = telemetry.Default().HistogramVec("chc_runtime_barrier_wait_seconds",
		"Time an exit of a node (ack, send, decide, control) waited on the output-commit barrier.", nil, "exit")
	mWireCorruptFrames = telemetry.Default().CounterVec("chc_wire_corrupt_frames_total",
		"Frames rejected by the wire decoder, by directed link and fault class.", "link", "class")
	mPeerQuarantines = telemetry.Default().Counter("chc_peer_quarantines_total",
		"Peers quarantined for exceeding the corrupt-frame strike budget.")
	mPeerReadmits = telemetry.Default().Counter("chc_peer_readmits_total",
		"Quarantined peers readmitted after a clean handshake.")
	mWireBatchFrames = telemetry.Default().HistogramVec("chc_wire_batch_frames",
		"Frames per coalesced wire batch, by directed link.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}, "link")
	mWireBatchBytes = telemetry.Default().HistogramVec("chc_wire_batch_bytes",
		"Bytes per coalesced wire batch before compression, by directed link.",
		[]float64{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}, "link")
	mWireCompressedBytes = telemetry.Default().CounterVec("chc_wire_compressed_bytes_total",
		"Bytes written inside flate-compressed batch envelopes, by directed link.", "link")
)

// The exits of a node: everything that leaves it waits on the output-commit
// barrier, timed under one of these labels. The children are resolved once so
// an observation is a pointer dereference and the disabled path stays the
// one atomic load inside Observe.
var (
	waitAck     = mBarrierWait.With("ack")     // the link ack of a delivery no send was waiting on
	waitSend    = mBarrierWait.With("send")    // a protocol message to a peer
	waitDecide  = mBarrierWait.With("decide")  // a decision handed to the run or the instance sink
	waitControl = mBarrierWait.With("control") // an admitted instance id returned to the caller
)

func init() {
	// Exactly the four exits above; anything else would be a bug, and lands
	// in "other".
	telemetry.SetLabelCardinality("chc_runtime_barrier_wait_seconds", 4)
	// Link×class is unbounded in principle (links scale with n²); cap the
	// families so a hostile wire cannot blow up the registry — the tail
	// collapses into the all-"other" series.
	telemetry.SetLabelCardinality("chc_wire_corrupt_frames_total", 128)
	telemetry.SetLabelCardinality("chc_wire_batch_frames", 128)
	telemetry.SetLabelCardinality("chc_wire_batch_bytes", 128)
	telemetry.SetLabelCardinality("chc_wire_compressed_bytes_total", 128)
}

package byzantine

import "chc/internal/telemetry"

// Cells of the shared chc_consensus_* families for the Byzantine-compiled
// variant (the "protocol" label tells it from core's "cc" and "vector").
var (
	mRoundsStarted = telemetry.Default().CounterVec("chc_consensus_rounds_started_total",
		"Averaging rounds entered: own state recorded into MSG_i[t] and broadcast.",
		"protocol").With("byzantine")
	mDecided = telemetry.Default().CounterVec("chc_consensus_decided_total",
		"Participants that reached a decision.", "protocol").With("byzantine")
	mDecidedRound = telemetry.Default().HistogramVec("chc_consensus_decided_round",
		"Terminal round t_end at which participants decided (experiment E19 checks its Max against the closed-form bound of eq. 19).",
		telemetry.RoundBuckets, "protocol").With("byzantine")
)

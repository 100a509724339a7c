package core

import "chc/internal/telemetry"

// The chc_consensus_* families, shared with the Byzantine variant through
// the "protocol" label. A Variant resolves its cells once, so the protocol
// hot path touches plain atomics.
var (
	roundsStartedVec = telemetry.Default().CounterVec("chc_consensus_rounds_started_total",
		"Averaging rounds entered: own state recorded into MSG_i[t] and broadcast.",
		"protocol")
	decidedVec = telemetry.Default().CounterVec("chc_consensus_decided_total",
		"Participants that reached a decision.", "protocol")
	decidedRoundVec = telemetry.Default().HistogramVec("chc_consensus_decided_round",
		"Terminal round t_end at which participants decided (experiment E19 checks its Max against the closed-form bound of eq. 19).",
		telemetry.RoundBuckets, "protocol")
	roundSecondsVec = telemetry.Default().HistogramVec("chc_consensus_round_seconds",
		"Wall-clock latency of one completed averaging round: first buffered state through the Minkowski average.",
		nil, "protocol")
	round0SecondsVec = telemetry.Default().HistogramVec("chc_consensus_round0_seconds",
		"Round-0 latency: stable-vector wait plus the initial hull/intersection geometry.",
		nil, "protocol")
)

// cells are one protocol label's instruments.
type cells struct {
	roundsStarted, decided                    *telemetry.Counter
	decidedRound, roundSeconds, round0Seconds *telemetry.Histogram
}

func cellsFor(protocol string) *cells {
	return &cells{
		roundsStarted: roundsStartedVec.With(protocol),
		decided:       decidedVec.With(protocol),
		decidedRound:  decidedRoundVec.With(protocol),
		roundSeconds:  roundSecondsVec.With(protocol),
		round0Seconds: round0SecondsVec.With(protocol),
	}
}

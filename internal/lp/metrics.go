package lp

import "chc/internal/telemetry"

// mSolves counts simplex invocations process-wide and mColumns the structural
// columns (Problem.NumVars) they were handed: hull's frame filter keeps the
// solve count level and shrinks each solve, so the count alone shows neither
// that gain nor its loss. LP solves are the finest unit of geometry work
// (hundreds per support-sampled intersection), so they get counters only —
// per-solve spans would dominate any trace. Round-level spans in the protocol
// layer carry the latency.
var (
	mSolves = telemetry.Default().Counter("chc_lp_solves_total",
		"Two-phase simplex solves across the process.")
	mColumns = telemetry.Default().Counter("chc_lp_columns_total",
		"Structural columns of the problems behind chc_lp_solves_total, summed.")
)

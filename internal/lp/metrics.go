package lp

import "chc/internal/telemetry"

// mSolves counts simplex solves process-wide and mColumns their structural
// columns (Problem.NumVars); a consensus run solves none.
var (
	mSolves = telemetry.Default().Counter("chc_lp_solves_total",
		"Two-phase simplex solves across the process.")
	mColumns = telemetry.Default().Counter("chc_lp_columns_total",
		"Structural columns of the problems behind chc_lp_solves_total, summed.")
)

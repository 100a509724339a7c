package polytope

import "chc/internal/telemetry"

// mCombineGroups records, for every call of L, how many distinct operands
// were left after equal operands were merged. By Containment a consensus
// round-1 call sees at most f+1 of them and, absent divergence, every later
// call sees exactly one. The disabled path is the histogram's one atomic
// load.
var mCombineGroups = telemetry.Default().Histogram("chc_polytope_combine_groups",
	"Distinct operands of one linear combination L after equal operands are merged.",
	[]float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32})

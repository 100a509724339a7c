package vectorconsensus

import (
	"fmt"

	"chc/internal/core"
	"chc/internal/geom"
)

// CheckValidity verifies that every decision lies in the convex hull of the
// correct inputs.
func CheckValidity(result *RunResult, cfg *core.RunConfig) error {
	ref, err := core.CorrectInputHull(cfg)
	if err != nil {
		return err
	}
	for id, out := range result.Outputs {
		d, err := ref.Distance(out, geom.DefaultEps)
		if err != nil {
			return err
		}
		if d > 1e-6 {
			return fmt.Errorf("vectorconsensus: validity violated at process %d: decision %v at distance %v from correct hull", id, out, d)
		}
	}
	return nil
}

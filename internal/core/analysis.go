package core

import (
	"errors"
	"fmt"

	"chc/internal/dist"
	"chc/internal/geom"
	"chc/internal/polytope"
)

// ErrNoOutputs is returned by analyses that need at least one decided
// fault-free process.
var ErrNoOutputs = errors.New("core: no fault-free outputs to analyse")

// checkTol is the tolerance used by the post-run property checks; it is
// deliberately looser than the geometric eps because polytope operations
// accumulate rounding across t_end rounds.
const checkTol = 1e-6

// IZ computes the optimality reference polytope of Section 6:
//
//	Z   = ∩_{i ∈ V-F} R_i          (stable vector results of fault-free processes)
//	X_Z = values in Z
//	I_Z = ∩_{D ⊆ X_Z, |D| = |X_Z| - f} H(D)
//
// Lemma 6 guarantees I_Z ⊆ h_i[t] for every fault-free i and round t, and
// Theorem 3 shows no algorithm can guarantee more than I_Z.
func IZ(result *RunResult) (*polytope.Polytope, error) {
	xz, err := CommonRound0(result)
	if err != nil {
		return nil, err
	}
	return InitialPolytope(result.Params, xz)
}

// CommonRound0 returns the values of Z = ∩_{i ∈ V-F} R_i, the round-0
// entries common to every fault-free process. With the stable vector's
// Containment property, |Z| >= n - f always; under the NaiveCollectRound0
// ablation it can be smaller — which is exactly what experiment E13
// measures.
func CommonRound0(result *RunResult) ([]geom.Point, error) {
	var common map[dist.ProcID]geom.Point
	for _, id := range result.FaultFree() {
		trace, ok := result.Traces[id]
		if !ok {
			return nil, fmt.Errorf("core: fault-free process %d has no trace", id)
		}
		entries := make(map[dist.ProcID]geom.Point, len(trace.R0Entries))
		for _, e := range trace.R0Entries {
			entries[e.Proc] = e.Value
		}
		if common == nil {
			common = entries
			continue
		}
		for proc := range common {
			if _, ok := entries[proc]; !ok {
				delete(common, proc)
			}
		}
	}
	if common == nil {
		return nil, ErrNoOutputs
	}
	xz := make([]geom.Point, 0, len(common))
	for _, id := range sortedProcIDs(common) {
		xz = append(xz, common[id])
	}
	return xz, nil
}

// sortedProcIDs returns map keys in ascending order (deterministic output).
func sortedProcIDs(m map[dist.ProcID]geom.Point) []dist.ProcID {
	ids := make([]dist.ProcID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids
}

// OutputAudit is the verdict of AuditOutputs.
type OutputAudit struct {
	// Valid: every vertex of every output lies within the check tolerance of
	// the reference hull (vacuously true without a reference).
	Valid bool
	// MaxHausdorff is the largest Hausdorff distance over all pairs of
	// outputs; Agree reports MaxHausdorff <= eps.
	MaxHausdorff float64
	Agree        bool
}

// AuditOutputs is the per-instance predicate of Theorem 2 over decided
// outputs, the single audit behind CheckValidity, CheckAgreement, the
// experiment matrices and the soak harness: validity — every output vertex
// within checkTol of ref, the hull of the correct inputs — and ε-agreement —
// the max PAIRWISE Hausdorff distance at most eps (comparing every output
// with one reference output instead would accept outputs up to 2·eps apart).
// A point decision is polytope.FromPoint(p), between which Hausdorff is the
// point distance. A nil ref audits agreement only.
func AuditOutputs(ref *polytope.Polytope, outs []*polytope.Polytope, eps float64) (OutputAudit, error) {
	audit := OutputAudit{Valid: true}
	for _, out := range outs {
		if ref == nil || !audit.Valid {
			break
		}
		var err error
		if audit.Valid, err = containsWithTol(ref, out, checkTol); err != nil {
			return audit, err
		}
	}
	d, err := polytope.MaxPairwiseHausdorff(outs, geom.DefaultEps)
	if err != nil {
		return audit, err
	}
	audit.MaxHausdorff, audit.Agree = d, d <= eps
	return audit, nil
}

// AgreementReport is the outcome of the ε-agreement check.
type AgreementReport struct {
	MaxHausdorff float64
	Epsilon      float64
	Holds        bool
}

// CheckAgreement verifies the ε-agreement property over the outputs of
// fault-free processes.
func CheckAgreement(result *RunResult) (*AgreementReport, error) {
	var outs []*polytope.Polytope
	for _, id := range result.FaultFree() {
		out, ok := result.Outputs[id]
		if !ok {
			return nil, fmt.Errorf("core: fault-free process %d did not decide", id)
		}
		outs = append(outs, out)
	}
	if len(outs) == 0 {
		return nil, ErrNoOutputs
	}
	audit, err := AuditOutputs(nil, outs, result.Params.Epsilon)
	if err != nil {
		return nil, err
	}
	return &AgreementReport{
		MaxHausdorff: audit.MaxHausdorff,
		Epsilon:      result.Params.Epsilon,
		Holds:        audit.Agree,
	}, nil
}

// CheckValidity verifies Definition 3 for every decided process: the output
// polytope is contained in the convex hull of the correct inputs.
func CheckValidity(result *RunResult, cfg *RunConfig) error {
	ref, err := CorrectInputHull(cfg)
	if err != nil {
		return err
	}
	for id, out := range result.Outputs {
		// One output at a time, so the error names the process.
		audit, err := AuditOutputs(ref, []*polytope.Polytope{out}, 0)
		if err != nil {
			return err
		}
		if !audit.Valid {
			return fmt.Errorf("core: validity violated at process %d: output %v not in correct-input hull %v", id, out, ref)
		}
	}
	return nil
}

// CheckOptimality verifies Lemma 6 on the final outputs: I_Z ⊆ h_i[t_end]
// for every fault-free process. Only meaningful under IncorrectInputs.
func CheckOptimality(result *RunResult) error {
	if result.Params.Model != IncorrectInputs {
		return errors.New("core: optimality check applies to the incorrect-inputs model only")
	}
	iz, err := IZ(result)
	if err != nil {
		return err
	}
	for _, id := range result.FaultFree() {
		out, ok := result.Outputs[id]
		if !ok {
			return fmt.Errorf("core: fault-free process %d did not decide", id)
		}
		okIn, err := containsWithTol(out, iz, checkTol)
		if err != nil {
			return err
		}
		if !okIn {
			return fmt.Errorf("core: optimality violated at process %d: I_Z ⊄ output", id)
		}
	}
	return nil
}

// containsWithTol reports whether inner ⊆ outer up to distance tol: every
// vertex of inner must be within tol of outer.
func containsWithTol(outer, inner *polytope.Polytope, tol float64) (bool, error) {
	for _, v := range inner.Vertices() {
		d, err := outer.Distance(v, geom.DefaultEps)
		if err != nil {
			return false, err
		}
		if d > tol {
			return false, nil
		}
	}
	return true, nil
}

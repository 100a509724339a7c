package main

import (
	"fmt"
	"time"

	"chc/internal/core"
	"chc/internal/dist"
	"chc/internal/geom"
	"chc/internal/polytope"
)

// outcome is the stored result of one attempted instance. Inputs are not
// stored: they are regenerated from (seed, workload, k) when the audit runs.
type outcome struct {
	k       int
	latency time.Duration
	err     error                // refused, failed or timed out
	outputs map[int][]geom.Point // output vertices per deciding process
}

// validityTol is how far outside the correct-input hull an output vertex may
// lie, as a share of the instance's ε. core's own post-run check allows an
// absolute 1e-6, and on uniform inputs all but one in ~2 500 instances stay
// under 1e-9; the rest — at the 3-D resilience bound, where round 0 yields a
// point — come out 1.5e-4 off (geom-cold, ε = 2), under a ten-thousandth of
// what ε-agreement lets two correct outputs differ by. The audit is there to
// catch wrong outputs, and a workload must not contain operations that fail,
// so the tolerance sits one order above that defect and is tied to ε. (On
// the general-position inputs geom-cold now gets, 10 000 instances stay
// under 2e-12; the tolerance is the margin against the ones that will not.)
const validityTol = 1e-3

// audit re-checks the paper's guarantees on one decided instance, from the
// stored output vertices alone (for service runs these are the vertices of
// the HTTP response): every fault-free process decided, the fault-free
// outputs are within Hausdorff distance ε of each other, and every output
// vertex lies in the hull of the correct inputs (Theorem 2 validity).
func audit(params core.Params, inputs []geom.Point, faulty []dist.ProcID, outputs map[int][]geom.Point) error {
	params = params.WithDefaults()
	isFaulty := make(map[int]bool, len(faulty))
	for _, id := range faulty {
		isFaulty[int(id)] = true
	}
	var correct []geom.Point
	for i, x := range inputs {
		if !isFaulty[i] {
			correct = append(correct, x)
		}
	}
	ref, err := polytope.New(correct, params.GeomEps)
	if err != nil {
		return fmt.Errorf("audit: correct-input hull: %w", err)
	}
	for proc, verts := range outputs {
		for _, v := range verts {
			d, err := ref.Distance(v, geom.DefaultEps)
			if err != nil {
				return fmt.Errorf("audit: %w", err)
			}
			if d > validityTol*params.Epsilon {
				return fmt.Errorf("audit: validity: process %d vertex %v is %g outside the correct-input hull", proc, v, d)
			}
		}
	}
	var outs []*polytope.Polytope
	for i := 0; i < params.N; i++ {
		if isFaulty[i] {
			continue
		}
		verts, ok := outputs[i]
		if !ok {
			return fmt.Errorf("audit: fault-free process %d did not decide", i)
		}
		p, err := polytope.New(verts, params.GeomEps)
		if err != nil {
			return fmt.Errorf("audit: process %d output: %w", i, err)
		}
		outs = append(outs, p)
	}
	dH, err := polytope.MaxPairwiseHausdorff(outs, params.GeomEps)
	if err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	if dH > params.Epsilon+1e-9 {
		return fmt.Errorf("audit: ε-agreement: max pairwise Hausdorff %g > ε = %g", dH, params.Epsilon)
	}
	return nil
}

// auditAll runs the audit over every outcome of a pass. It returns how many
// instances decided and passed, how many failed (refused, errored, timed out
// or violated the audit), and the first few failure messages.
func auditAll(w *workload, seed int64, outs []outcome) (decided, failed int, msgs []string) {
	for i := range outs {
		o := &outs[i]
		if o.err == nil {
			inputs := genInputs(seed, w.name, o.k, w.params.N, w.params.D)
			o.err = audit(w.params, inputs, w.faulty(), o.outputs)
		}
		if o.err != nil {
			failed++
			if len(msgs) < 5 {
				msgs = append(msgs, fmt.Sprintf("instance %d: %v", o.k, o.err))
			}
			continue
		}
		decided++
	}
	return decided, failed, msgs
}

// Package vectorconsensus implements asynchronous approximate vector
// (multidimensional) consensus under crash faults with incorrect inputs —
// the problem of Mendes–Herlihy and Vaidya–Garg that convex hull consensus
// generalises, adapted to the crash model of the paper.
//
// Each process decides a single point in the convex hull of the correct
// inputs, with pairwise decisions within ε. It is Algorithm CC started from
// a singleton: h_i[0] = {SafePoint(X_i)}, the centroid of CC's own h_i[0],
// which any f incorrect inputs cannot displace outside the correct hull. The
// function L applied to points is their weighted average, so every later
// state is a point too, and by Theorem 1 a decision is
// Σ_j P_ij[t_end]·SafePoint(R_j). Messages, trace records, events and the
// round loop are CC's; only the output carries one point of information
// instead of the full optimal region. It serves as the comparison baseline
// in the experiment suite.
package vectorconsensus

import (
	"chc/internal/core"
	"chc/internal/dist"
	"chc/internal/engine"
	"chc/internal/geom"
	"chc/internal/polytope"
)

// The baseline is a full engine protocol: it decides a point.
var _ engine.Protocol[geom.Point] = (*Process)(nil)

// variant is vector consensus as Algorithm CC: round 0 ends in one point.
var variant = core.NewVariant("vector", func(params core.Params, xi []geom.Point) (*polytope.Polytope, error) {
	safe, err := SafePoint(params, xi)
	if err != nil {
		return nil, err
	}
	return polytope.FromPoint(safe), nil
})

// Process is one participant in the vector consensus protocol: an
// Algorithm CC process whose states are single points.
type Process struct{ *core.Process }

// NewProcess builds a vector consensus participant.
func NewProcess(params core.Params, id dist.ProcID, input geom.Point) (*Process, error) {
	p, err := variant.NewProcess(params, id, input)
	if err != nil {
		return nil, err
	}
	return &Process{p}, nil
}

// Output returns the decision point, the one vertex of h_i[t_end].
func (p *Process) Output() (geom.Point, error) {
	h, err := p.Process.Output()
	if err != nil {
		return nil, err
	}
	return h.Vertices()[0], nil
}

// SafePoint computes the round-0 point state: the vertex centroid of the
// intersection polytope of line 5 — guaranteed to lie in the convex hull of
// the correct inputs whichever f of the received inputs are incorrect.
func SafePoint(params core.Params, xi []geom.Point) (geom.Point, error) {
	h0, err := core.InitialPolytope(params, xi)
	if err != nil {
		return nil, err
	}
	return h0.Centroid()
}

// RunResult is a simulated execution of the baseline: Algorithm CC's record
// of it (faults, traces, message statistics) with each decision read as the
// point it is.
type RunResult struct {
	*core.RunResult
	// Outputs maps every process that decided to its decision point. It
	// shadows the embedded result's singleton polytopes.
	Outputs map[dist.ProcID]geom.Point
	Rounds  int // max averaging rounds over decided processes
}

// MaxPairwiseDistance returns the largest distance between two fault-free
// decisions (the quantity bounded by ε-agreement).
func (r *RunResult) MaxPairwiseDistance() float64 {
	ids := r.FaultFree()
	var worst float64
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			a, oka := r.Outputs[ids[i]]
			b, okb := r.Outputs[ids[j]]
			if !oka || !okb {
				continue
			}
			if d := geom.Dist(a, b); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// Spec returns the engine description of the baseline instance: one vector
// consensus participant per process, built deterministically from the
// validated config.
func Spec(cfg core.RunConfig) engine.InstanceSpec {
	params := cfg.Params
	return engine.InstanceSpec{New: func(id dist.ProcID) (dist.Process, error) {
		return NewProcess(params, id, cfg.Inputs[id])
	}}
}

// Run executes one vector consensus instance over the unified engine,
// reusing the execution description of package core (transport and
// environment included). Like core.Run it returns the partial result beside
// a failure.
func Run(cfg core.RunConfig) (*RunResult, error) {
	res, err := variant.Run(cfg)
	if res == nil {
		return nil, err
	}
	result := &RunResult{RunResult: res, Outputs: make(map[dist.ProcID]geom.Point, len(res.Outputs))}
	for id, h := range res.Outputs {
		result.Outputs[id] = h.Vertices()[0]
		result.Rounds = max(result.Rounds, len(res.Traces[id].Rounds))
	}
	return result, err
}

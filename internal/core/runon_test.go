package core

import (
	"errors"
	"testing"
	"time"

	"chc/internal/dist"
	"chc/internal/engine"
	"chc/internal/geom"
	"chc/internal/polytope"
)

// TestRunOnFailureIsNotACrash: a process that ends in failure is Done for the
// engine, and on every transport it must surface as the run's error beside
// the partial result — not be filed under Crashed with a nil error, which is
// what the networked collection loops did. p4 crashes before sending, and
// round 0 is swapped for one that always fails, so every survivor ends in
// failure rather than a decision.
func TestRunOnFailureIsNotACrash(t *testing.T) {
	defer func(orig func(Params, []geom.Point) (*polytope.Polytope, error)) { initialPolytope = orig }(initialPolytope)
	initialPolytope = func(Params, []geom.Point) (*polytope.Polytope, error) {
		return nil, polytope.ErrEmpty
	}
	cfg := RunConfig{
		Params: Params{N: 5, F: 1, D: 2, Epsilon: 0.5, InputLower: 0, InputUpper: 10},
		Inputs: []geom.Point{
			geom.NewPoint(1, 1), geom.NewPoint(9, 1), geom.NewPoint(9, 9),
			geom.NewPoint(1, 9), geom.NewPoint(5, 5),
		},
		Faulty:  []dist.ProcID{4},
		Crashes: []dist.CrashPlan{{Proc: 4, AfterSends: 0}},
	}
	for _, transport := range []engine.Transport{engine.TransportSim, engine.TransportChannel} {
		res, err := RunOn(cfg, engine.Options{Transport: transport, Timeout: 30 * time.Second})
		if !errors.Is(err, polytope.ErrEmpty) {
			t.Fatalf("%v: err = %v, want the round-0 ErrEmpty failure", transport, err)
		}
		if res == nil {
			t.Fatalf("%v: no partial result beside the failure", transport)
		}
		if len(res.Crashed) != 1 || !res.Crashed[4] {
			t.Errorf("%v: Crashed = %v, want only the planned crash of p4", transport, res.Crashed)
		}
		if len(res.Outputs) != 0 {
			t.Errorf("%v: %d outputs from processes that failed in round 0", transport, len(res.Outputs))
		}
	}
}

// TestAuditOutputsIsPairwise pins the ε-agreement predicate: three decisions
// on a line at pairwise distances (0.9ε, 0.9ε, 1.8ε). A star-shaped check —
// every output against one reference, as the service experiment's audit used
// to do with whichever output Go's map order yielded first — accepts them
// whenever the reference is the middle one; the shared audit must not.
func TestAuditOutputsIsPairwise(t *testing.T) {
	const eps = 0.1
	outs := []*polytope.Polytope{
		polytope.FromPoint(geom.NewPoint(1, 1)),
		polytope.FromPoint(geom.NewPoint(1+0.9*eps, 1)),
		polytope.FromPoint(geom.NewPoint(1+1.8*eps, 1)),
	}
	for _, out := range outs {
		d, err := polytope.Hausdorff(outs[1], out, geom.DefaultEps)
		if err != nil {
			t.Fatal(err)
		}
		if d > eps {
			t.Fatalf("star check from the middle output would reject (d = %v): the case is mis-built", d)
		}
	}
	ref, err := polytope.New([]geom.Point{geom.NewPoint(0, 0), geom.NewPoint(2, 0), geom.NewPoint(0, 2), geom.NewPoint(2, 2)}, geom.DefaultEps)
	if err != nil {
		t.Fatal(err)
	}
	audit, err := AuditOutputs(ref, outs, eps)
	if err != nil {
		t.Fatal(err)
	}
	if !audit.Valid {
		t.Error("outputs inside the reference hull reported invalid")
	}
	if audit.Agree || audit.MaxHausdorff < 1.7*eps {
		t.Errorf("audit = %+v: outputs 1.8ε apart must fail ε-agreement", audit)
	}
	// And validity is judged per vertex: one decision outside the hull.
	audit, err = AuditOutputs(ref, append(outs, polytope.FromPoint(geom.NewPoint(2.5, 1))), 10)
	if err != nil {
		t.Fatal(err)
	}
	if audit.Valid {
		t.Error("a decision outside the reference hull reported valid")
	}
}

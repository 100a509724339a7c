package byzantine

import (
	"math/rand"
	"testing"

	"chc/internal/core"
	"chc/internal/dist"
	"chc/internal/geom"
	"chc/internal/polytope"
)

func pt(coords ...float64) geom.Point { return geom.NewPoint(coords...) }

// params for d=2, f=1: n >= max(3f+1, (d+2)f+1) = 5.
func params(n, f, d int) core.Params {
	return core.Params{
		N: n, F: f, D: d,
		Epsilon:    0.1,
		InputLower: 0, InputUpper: 10,
	}
}

func inputs2D(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = pt(rng.Float64()*10, rng.Float64()*10)
	}
	return pts
}

func checkRun(t *testing.T, cfg RunConfig) *RunResult {
	t.Helper()
	result, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range result.Correct() {
		if _, ok := result.Outputs[id]; !ok {
			t.Fatalf("correct process %d did not decide", id)
		}
	}
	if err := CheckValidity(result, &cfg); err != nil {
		t.Errorf("validity: %v", err)
	}
	d, holds, err := CheckAgreement(result)
	if err != nil {
		t.Fatal(err)
	}
	if !holds {
		t.Errorf("ε-agreement violated: %v > %v", d, cfg.Params.Epsilon)
	}
	return result
}

func TestNoByzantine(t *testing.T) {
	cfg := RunConfig{
		Params: params(5, 1, 2),
		Inputs: inputs2D(5, 1),
		Seed:   1,
	}
	checkRun(t, cfg)
}

func TestEveryBehavior(t *testing.T) {
	for _, behavior := range []Behavior{Silent, IncorrectInput, Equivocator, Garbler} {
		t.Run(behavior.String(), func(t *testing.T) {
			inputs := inputs2D(5, 2)
			cfg := RunConfig{
				Params: params(5, 1, 2),
				Inputs: inputs,
				Faults: []Fault{{Proc: 4, Behavior: behavior, Input: pt(9.9, 0.1)}},
				Seed:   2,
			}
			checkRun(t, cfg)
		})
	}
}

func TestTwoByzantine(t *testing.T) {
	// d=1, f=2: n >= max(3f+1, (d+2)f+1) = 7.
	inputs := []geom.Point{pt(1), pt(2), pt(3), pt(4), pt(5), pt(0), pt(10)}
	cfg := RunConfig{
		Params: params(7, 2, 1),
		Inputs: inputs,
		Faults: []Fault{
			{Proc: 5, Behavior: Equivocator},
			{Proc: 6, Behavior: IncorrectInput, Input: pt(10)},
		},
		Seed: 3,
	}
	result := checkRun(t, cfg)
	// Outputs must exclude influence beyond the correct hull [1, 5].
	for id, out := range result.Outputs {
		lo, hi, err := out.BoundingBox()
		if err != nil {
			t.Fatal(err)
		}
		if lo[0] < 1-1e-6 || hi[0] > 5+1e-6 {
			t.Errorf("process %d output [%v, %v] escapes correct hull [1, 5]", id, lo[0], hi[0])
		}
	}
}

func TestAdversarialSchedulers(t *testing.T) {
	inputs := inputs2D(5, 4)
	for name, sched := range map[string]dist.Scheduler{
		"delay": dist.NewDelayScheduler(4),
		"rr":    dist.NewRoundRobinScheduler(),
		"split": dist.NewSplitScheduler(0, 1),
	} {
		t.Run(name, func(t *testing.T) {
			cfg := RunConfig{
				Params:    params(5, 1, 2),
				Inputs:    inputs,
				Faults:    []Fault{{Proc: 4, Behavior: Garbler}},
				Seed:      4,
				Scheduler: sched,
			}
			checkRun(t, cfg)
		})
	}
}

func TestRunValidation(t *testing.T) {
	good := RunConfig{Params: params(5, 1, 2), Inputs: inputs2D(5, 5)}
	bad := good
	bad.Params.N = 4 // violates both 3f+1... actually 4 >= 4; violates (d+2)f+1=5
	bad.Inputs = inputs2D(4, 5)
	if _, err := Run(bad); err == nil {
		t.Error("below geometric bound should error")
	}
	bad = good
	bad.Inputs = inputs2D(3, 5)
	if _, err := Run(bad); err == nil {
		t.Error("input count mismatch should error")
	}
	bad = good
	bad.Faults = []Fault{{Proc: 0}, {Proc: 1}}
	if _, err := Run(bad); err == nil {
		t.Error("too many faults should error")
	}
	bad = good
	bad.Faults = []Fault{{Proc: 9, Behavior: Silent}}
	if _, err := Run(bad); err == nil {
		t.Error("out-of-range fault should error")
	}
	bad = good
	bad.Faults = []Fault{{Proc: 0, Behavior: Behavior(42)}}
	if _, err := Run(bad); err == nil {
		t.Error("unknown behaviour should error")
	}
	// Byzantine requires 3f+1: d=1, f=1 would allow n=4 geometrically
	// ((d+2)f+1 = 4) and 3f+1 = 4, so n=3 must fail both ways.
	p := params(3, 1, 1)
	if _, err := NewProcess(p, 0, pt(1)); err == nil {
		t.Error("n < 3f+1 should error")
	}
	p = params(5, 1, 2)
	p.Model = core.CorrectInputs
	if _, err := NewProcess(p, 0, pt(1, 1)); err == nil {
		t.Error("correct-inputs model should be rejected by the transformation")
	}
}

func TestBehaviorString(t *testing.T) {
	for _, b := range []Behavior{Silent, IncorrectInput, Equivocator, Garbler, Behavior(9)} {
		if b.String() == "" {
			t.Error("empty behaviour name")
		}
	}
}

func TestDeterministic(t *testing.T) {
	cfg := RunConfig{
		Params: params(5, 1, 2),
		Inputs: inputs2D(5, 6),
		Faults: []Fault{{Proc: 2, Behavior: Equivocator}},
		Seed:   6,
	}
	r1 := checkRun(t, cfg)
	r2 := checkRun(t, cfg)
	if len(r1.Outputs) != len(r2.Outputs) {
		t.Fatal("output sets differ between identical runs")
	}
	if r1.Stats.Sends != r2.Stats.Sends {
		t.Errorf("message counts differ: %d vs %d", r1.Stats.Sends, r2.Stats.Sends)
	}
}

// Property: validity + agreement hold for random seeds and behaviours.
func TestPropertiesRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("long property test")
	}
	behaviors := []Behavior{Silent, IncorrectInput, Equivocator, Garbler}
	for trial := 0; trial < 8; trial++ {
		seed := int64(trial*53 + 11)
		cfg := RunConfig{
			Params: params(5, 1, 2),
			Inputs: inputs2D(5, seed),
			Faults: []Fault{{
				Proc:     dist.ProcID(trial % 5),
				Behavior: behaviors[trial%len(behaviors)],
				Input:    pt(0.1, 9.9),
			}},
			Seed: seed,
		}
		result, err := Run(cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := CheckValidity(result, &cfg); err != nil {
			t.Errorf("trial %d: %v", trial, err)
		}
		if d, holds, err := CheckAgreement(result); err != nil || !holds {
			t.Errorf("trial %d: agreement %v %v %v", trial, d, holds, err)
		}
	}
}

// TestGarbledStateRehulled: Byzantine senders are untrusted, so the states a
// process recomputes from what they sent are built with polytope.New, not
// wrapped. Inputs that list a non-convex, clockwise, duplicated point set —
// a list the crash-model wrapper refuses — still give a canonical state.
func TestGarbledStateRehulled(t *testing.T) {
	garbled := []geom.Point{pt(0, 0), pt(0, 10), pt(10, 10), pt(10, 0), pt(0, 10), pt(6, 3)}
	if _, err := polytope.FromCanonical(garbled); err == nil {
		t.Fatal("FromCanonical accepted the garbled list")
	}
	p, err := NewProcess(params(6, 1, 2), 0, pt(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	choice := make([]dist.ProcID, len(garbled))
	for i, x := range garbled {
		p.inputs[dist.ProcID(i)] = x
		choice[i] = dist.ProcID(i)
	}
	h, ok, bad := p.tryCompute(stateKey{proc: 3, round: 0}, choice)
	if !ok || bad {
		t.Fatalf("round-0 state not computed: ok=%v bad=%v", ok, bad)
	}
	if _, err := polytope.FromCanonical(h.Vertices()); err != nil {
		t.Errorf("recomputed state is not canonical: %v", err)
	}
}

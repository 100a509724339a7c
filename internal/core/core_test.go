package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"chc/internal/dist"
	"chc/internal/geom"
	"chc/internal/polytope"
	"chc/internal/telemetry"
)

func pt(coords ...float64) geom.Point { return geom.NewPoint(coords...) }

func baseParams(n, f, d int) Params {
	return Params{
		N: n, F: f, D: d,
		Epsilon:    0.05,
		InputLower: 0, InputUpper: 10,
	}
}

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name    string
		p       Params
		wantErr bool
	}{
		{"ok 2d", baseParams(5, 1, 2), false}, // n = (d+2)f+1 = 5
		{"below bound", baseParams(4, 1, 2), true},
		{"ok correct-inputs small n", Params{N: 3, F: 1, D: 2, Epsilon: 0.1, InputUpper: 1, Model: CorrectInputs}, false},
		{"zero epsilon", Params{N: 5, F: 1, D: 2, InputUpper: 1}, true},
		{"negative f", Params{N: 5, F: -1, D: 2, Epsilon: 0.1, InputUpper: 1}, true},
		{"bad bounds", Params{N: 5, F: 1, D: 1, Epsilon: 0.1, InputLower: 2, InputUpper: 1}, true},
		{"zero n", Params{N: 0, F: 0, D: 1, Epsilon: 0.1, InputUpper: 1}, true},
		{"unknown model", Params{N: 5, F: 1, D: 1, Epsilon: 0.1, InputUpper: 1, Model: FaultModel(9)}, true},
	}
	for _, tt := range tests {
		err := tt.p.Validate()
		if (err != nil) != tt.wantErr {
			t.Errorf("%s: err = %v, wantErr = %v", tt.name, err, tt.wantErr)
		}
	}
}

func TestTEnd(t *testing.T) {
	p := baseParams(5, 1, 2)
	tEnd := p.TEnd()
	if tEnd <= 0 {
		t.Fatalf("TEnd = %d, want > 0", tEnd)
	}
	// Equation (19): (1-1/n)^tEnd * bound < eps <= (1-1/n)^(tEnd-1) * bound.
	bound := math.Sqrt(2) * 5 * 10
	shrink := 1 - 1.0/5
	if bound*math.Pow(shrink, float64(tEnd)) >= p.Epsilon {
		t.Errorf("TEnd too small: bound after %d rounds is %v", tEnd, bound*math.Pow(shrink, float64(tEnd)))
	}
	if bound*math.Pow(shrink, float64(tEnd-1)) < p.Epsilon {
		t.Errorf("TEnd not minimal")
	}
	// Huge epsilon: zero rounds needed.
	p.Epsilon = 1e6
	if got := p.TEnd(); got != 0 {
		t.Errorf("TEnd = %d for huge epsilon, want 0", got)
	}
}

func TestFaultModelString(t *testing.T) {
	if IncorrectInputs.String() == "" || CorrectInputs.String() == "" ||
		!strings.HasPrefix(FaultModel(42).String(), "FaultModel") {
		t.Error("FaultModel.String broken")
	}
}

func TestInitialPolytopeIncorrectInputs(t *testing.T) {
	// 1-D example, n=4 (not a full run; direct unit test of line 5).
	// X = {0, 1, 2, 10}, f = 1: subsets of size 3 are {0,1,2}, {0,1,10},
	// {0,2,10}, {1,2,10}; hull intersection = [1, 2].
	p := Params{N: 4, F: 1, D: 1, Epsilon: 0.1, InputUpper: 10}
	h, err := InitialPolytope(p, []geom.Point{pt(0), pt(1), pt(2), pt(10)})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, err := h.BoundingBox()
	if err != nil || math.Abs(lo[0]-1) > 1e-9 || math.Abs(hi[0]-2) > 1e-9 {
		t.Errorf("h_0 = [%v, %v], want [1, 2]", lo, hi)
	}
}

func TestInitialPolytopeCorrectInputs(t *testing.T) {
	p := Params{N: 3, F: 1, D: 1, Epsilon: 0.1, InputUpper: 10, Model: CorrectInputs}
	h, err := InitialPolytope(p, []geom.Point{pt(0), pt(5)})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, err := h.BoundingBox()
	if err != nil || lo[0] != 0 || hi[0] != 5 {
		t.Errorf("h_0 = [%v, %v], want [0, 5]", lo, hi)
	}
}

func TestInitialPolytopeTooFewInputs(t *testing.T) {
	p := baseParams(5, 1, 2)
	if _, err := InitialPolytope(p, []geom.Point{pt(0, 0)}); err == nil {
		t.Error("too few inputs should error")
	}
}

func TestSubsetsExcludingF(t *testing.T) {
	got := subsetsExcludingF(4, 2)
	if len(got) != 6 { // C(4,2)
		t.Fatalf("got %d subsets, want 6", len(got))
	}
	seen := make(map[string]bool)
	for _, mask := range got {
		if len(mask) != 4 {
			t.Fatalf("mask has length %d, want 4", len(mask))
		}
		excluded := 0
		for _, b := range mask {
			if b {
				excluded++
			}
		}
		if excluded != 2 {
			t.Fatalf("mask %v excludes %d indices, want 2", mask, excluded)
		}
		seen[fmt.Sprint(mask)] = true
	}
	if len(seen) != 6 {
		t.Fatalf("masks are not distinct: %d unique of 6", len(seen))
	}
	got = subsetsExcludingF(3, 0)
	if len(got) != 1 {
		t.Fatalf("f=0 should yield one exclusion mask")
	}
	for _, b := range got[0] {
		if b {
			t.Fatalf("f=0 mask should exclude nothing, got %v", got[0])
		}
	}
}

func runConsensus(t *testing.T, cfg RunConfig) *RunResult {
	t.Helper()
	result, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return result
}

func inputs2D(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = pt(rng.Float64()*10, rng.Float64()*10)
	}
	return pts
}

func TestRunNoFaults2D(t *testing.T) {
	cfg := RunConfig{
		Params: baseParams(5, 1, 2),
		Inputs: inputs2D(5, 1),
		Seed:   1,
	}
	result := runConsensus(t, cfg)
	if len(result.Outputs) != 5 {
		t.Fatalf("%d outputs, want 5", len(result.Outputs))
	}
	rep, err := CheckAgreement(result)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Holds {
		t.Errorf("ε-agreement violated: %v > %v", rep.MaxHausdorff, rep.Epsilon)
	}
	if err := CheckValidity(result, &cfg); err != nil {
		t.Errorf("validity: %v", err)
	}
	if err := CheckOptimality(result); err != nil {
		t.Errorf("optimality: %v", err)
	}
}

func TestRunWithCrashAndIncorrectInput(t *testing.T) {
	inputs := inputs2D(5, 2)
	inputs[3] = pt(0, 10) // the incorrect input of the faulty process
	cfg := RunConfig{
		Params:  baseParams(5, 1, 2),
		Inputs:  inputs,
		Faulty:  []dist.ProcID{3},
		Crashes: []dist.CrashPlan{{Proc: 3, AfterSends: 7}},
		Seed:    3,
	}
	result := runConsensus(t, cfg)
	for _, id := range result.FaultFree() {
		if _, ok := result.Outputs[id]; !ok {
			t.Fatalf("fault-free process %d did not decide", id)
		}
	}
	rep, err := CheckAgreement(result)
	if err != nil || !rep.Holds {
		t.Errorf("agreement: %+v, %v", rep, err)
	}
	// Validity: outputs exclude influence of the incorrect input beyond the
	// correct hull.
	if err := CheckValidity(result, &cfg); err != nil {
		t.Errorf("validity: %v", err)
	}
	if err := CheckOptimality(result); err != nil {
		t.Errorf("optimality: %v", err)
	}
}

func TestRun1D(t *testing.T) {
	cfg := RunConfig{
		Params: Params{N: 4, F: 1, D: 1, Epsilon: 0.05, InputLower: 0, InputUpper: 10},
		Inputs: []geom.Point{pt(1), pt(2), pt(3), pt(9)},
		Faulty: []dist.ProcID{3},
		Seed:   4,
	}
	result := runConsensus(t, cfg)
	rep, err := CheckAgreement(result)
	if err != nil || !rep.Holds {
		t.Fatalf("agreement: %+v, %v", rep, err)
	}
	if err := CheckValidity(result, &cfg); err != nil {
		t.Errorf("validity: %v", err)
	}
	// Outputs must contain I_Z and stay within hull of {1,2,3}.
	if err := CheckOptimality(result); err != nil {
		t.Errorf("optimality: %v", err)
	}
}

func TestRun3D(t *testing.T) {
	// d=3 requires n >= 5f+1 = 6 for f=1.
	rng := rand.New(rand.NewSource(5))
	inputs := make([]geom.Point, 6)
	for i := range inputs {
		inputs[i] = pt(rng.Float64()*4, rng.Float64()*4, rng.Float64()*4)
	}
	cfg := RunConfig{
		Params: Params{N: 6, F: 1, D: 3, Epsilon: 2.0, InputLower: 0, InputUpper: 4},
		Inputs: inputs,
		Faulty: []dist.ProcID{5},
		Seed:   5,
	}
	result := runConsensus(t, cfg)
	rep, err := CheckAgreement(result)
	if err != nil || !rep.Holds {
		t.Fatalf("agreement: %+v, %v", rep, err)
	}
	if err := CheckValidity(result, &cfg); err != nil {
		t.Errorf("validity: %v", err)
	}
}

// TestRun3DLPColumns guards the size of the LP work behind a d = 3 instance.
// hull's frame filter solves about as many LPs as the LP-per-point loop it
// replaced but over the frame's columns only, so chc_lp_solves_total cannot
// show that gain eroding; chc_lp_columns_total does. The instance is pinned
// and, memo off, bitwise deterministic.
func TestRun3DLPColumns(t *testing.T) {
	// What this instance cost under the LP-per-point loop, every hull call
	// the same: measured at the parent of the frame filter with this counter
	// patched in (21 330 solves; the frame filter needs 21 648).
	const lpPerPointColumns = 577404

	defer polytope.SetHullCaching(polytope.SetHullCaching(false))
	reg := telemetry.Default()
	defer reg.SetEnabled(reg.SetEnabled(true))
	columns := func() float64 { return reg.Snapshot().Find("chc_lp_columns_total").Total() }

	rng := rand.New(rand.NewSource(16))
	inputs := make([]geom.Point, 6)
	for i := range inputs {
		inputs[i] = pt(rng.Float64()*10, rng.Float64()*10, rng.Float64()*10)
	}
	before := columns()
	runConsensus(t, RunConfig{
		Params: Params{N: 6, F: 1, D: 3, Epsilon: 2, InputUpper: 10},
		Inputs: inputs,
		Faulty: []dist.ProcID{5},
		Seed:   16,
	})
	got := columns() - before
	t.Logf("%.0f LP columns, %.3f of the LP-per-point loop's", got, got/lpPerPointColumns)
	if got > lpPerPointColumns/4 {
		t.Errorf("instance solved %.0f LP columns, want at most a quarter of the LP-per-point loop's %d", got, lpPerPointColumns)
	}
}

func TestRun4D(t *testing.T) {
	// d=4 requires n >= 6f+1 = 7 for f=1. Large epsilon keeps the round
	// count small (the 4-D geometry kernel is the expensive path).
	rng := rand.New(rand.NewSource(41))
	inputs := make([]geom.Point, 7)
	for i := range inputs {
		inputs[i] = pt(rng.Float64()*3, rng.Float64()*3, rng.Float64()*3, rng.Float64()*3)
	}
	cfg := RunConfig{
		Params: Params{N: 7, F: 1, D: 4, Epsilon: 3.0, InputLower: 0, InputUpper: 3},
		Inputs: inputs,
		Faulty: []dist.ProcID{6},
		Seed:   41,
	}
	result := runConsensus(t, cfg)
	rep, err := CheckAgreement(result)
	if err != nil || !rep.Holds {
		t.Fatalf("agreement: %+v, %v", rep, err)
	}
	if err := CheckValidity(result, &cfg); err != nil {
		t.Errorf("validity: %v", err)
	}
}

func TestRunCorrectInputsModel(t *testing.T) {
	// n = 3, f = 1 is legal under the correct-inputs variant.
	cfg := RunConfig{
		Params: Params{N: 3, F: 1, D: 2, Epsilon: 0.1, InputLower: 0, InputUpper: 5, Model: CorrectInputs},
		Inputs: []geom.Point{pt(0, 0), pt(4, 0), pt(0, 4)},
		Faulty: []dist.ProcID{2},
		Crashes: []dist.CrashPlan{
			{Proc: 2, AfterSends: 3},
		},
		Seed: 6,
	}
	result := runConsensus(t, cfg)
	rep, err := CheckAgreement(result)
	if err != nil || !rep.Holds {
		t.Fatalf("agreement: %+v, %v", rep, err)
	}
	// Under CorrectInputs, validity is against the hull of ALL inputs.
	if err := CheckValidity(result, &cfg); err != nil {
		t.Errorf("validity: %v", err)
	}
	if err := CheckOptimality(result); err == nil {
		t.Error("optimality check should refuse the correct-inputs model")
	}
}

func TestRunConfigValidation(t *testing.T) {
	good := RunConfig{Params: baseParams(5, 1, 2), Inputs: inputs2D(5, 1)}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := good
	bad.Inputs = inputs2D(4, 1)
	if err := bad.Validate(); err == nil {
		t.Error("wrong input count should error")
	}
	bad = good
	bad.Faulty = []dist.ProcID{0, 1}
	if err := bad.Validate(); err == nil {
		t.Error("too many faulty should error")
	}
	bad = good
	bad.Faulty = []dist.ProcID{9}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range faulty should error")
	}
	bad = good
	bad.Crashes = []dist.CrashPlan{{Proc: 0}}
	if err := bad.Validate(); err == nil {
		t.Error("crash of non-faulty process should error")
	}
	bad = good
	bad.Faulty = []dist.ProcID{1, 1}
	bad.Params.F = 2
	bad.Params.N = 9
	bad.Inputs = inputs2D(9, 1)
	if err := bad.Validate(); err == nil {
		t.Error("duplicate faulty should error")
	}
}

func TestNewProcessValidation(t *testing.T) {
	p := baseParams(5, 1, 2)
	if _, err := NewProcess(p, 0, pt(1)); err == nil {
		t.Error("wrong dimension should error")
	}
	if _, err := NewProcess(p, 0, pt(100, 0)); err == nil {
		t.Error("out-of-bounds input should error")
	}
	if _, err := NewProcess(p, 0, pt(math.NaN(), 0)); err == nil {
		t.Error("NaN input should error")
	}
	proc, err := NewProcess(p, 0, pt(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proc.Output(); err == nil {
		t.Error("Output before decision should error")
	}
}

func TestAdversarialSchedulers(t *testing.T) {
	inputs := inputs2D(5, 7)
	for name, sched := range map[string]dist.Scheduler{
		"delay": dist.NewDelayScheduler(0),
		"split": dist.NewSplitScheduler(0, 1),
		"rr":    dist.NewRoundRobinScheduler(),
	} {
		t.Run(name, func(t *testing.T) {
			cfg := RunConfig{
				Params:    baseParams(5, 1, 2),
				Inputs:    inputs,
				Faulty:    []dist.ProcID{0},
				Seed:      8,
				Scheduler: sched,
			}
			result := runConsensus(t, cfg)
			rep, err := CheckAgreement(result)
			if err != nil || !rep.Holds {
				t.Fatalf("agreement: %+v, %v", rep, err)
			}
			if err := CheckValidity(result, &cfg); err != nil {
				t.Errorf("validity: %v", err)
			}
			if err := CheckOptimality(result); err != nil {
				t.Errorf("optimality: %v", err)
			}
		})
	}
}

func TestLemma6AllRounds(t *testing.T) {
	// I_Z ⊆ h_i[t] for every recorded round, not just the final one.
	cfg := RunConfig{
		Params: baseParams(5, 1, 2),
		Inputs: inputs2D(5, 9),
		Faulty: []dist.ProcID{2},
		Seed:   9,
	}
	result := runConsensus(t, cfg)
	iz, err := IZ(result)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range result.FaultFree() {
		trace := result.Traces[id]
		h0, err := polytope.New(trace.H0, geom.DefaultEps)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := containsWithTol(h0, iz, 1e-6)
		if err != nil || !ok {
			t.Errorf("process %d: I_Z ⊄ h[0]: %v", id, err)
		}
		for _, rec := range trace.Rounds {
			h, err := polytope.New(rec.State, geom.DefaultEps)
			if err != nil {
				t.Fatal(err)
			}
			ok, err := containsWithTol(h, iz, 1e-5)
			if err != nil || !ok {
				t.Errorf("process %d round %d: I_Z ⊄ h[t]", id, rec.Round)
			}
		}
	}
}

func TestIdenticalInputsDegenerate(t *testing.T) {
	// All processes share one input: output must be (essentially) that
	// point — the degenerate case of Section 6.
	inputs := make([]geom.Point, 5)
	for i := range inputs {
		inputs[i] = pt(3, 4)
	}
	cfg := RunConfig{
		Params: baseParams(5, 1, 2),
		Inputs: inputs,
		Seed:   10,
	}
	result := runConsensus(t, cfg)
	for id, out := range result.Outputs {
		if !out.IsPoint(1e-6) {
			t.Errorf("process %d output is not a point: %v", id, out)
		}
		c, err := out.Centroid()
		if err != nil || !geom.Equal(c, pt(3, 4), 1e-6) {
			t.Errorf("process %d output centred at %v", id, c)
		}
	}
}

func TestRoundComplexityWithinTEnd(t *testing.T) {
	cfg := RunConfig{
		Params: baseParams(5, 1, 2),
		Inputs: inputs2D(5, 11),
		Seed:   11,
	}
	result := runConsensus(t, cfg)
	tEnd := cfg.Params.withDefaults().TEnd()
	for id, trace := range result.Traces {
		if len(trace.Rounds) != tEnd {
			t.Errorf("process %d ran %d rounds, want exactly t_end = %d", id, len(trace.Rounds), tEnd)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := RunConfig{
		Params: baseParams(5, 1, 2),
		Inputs: inputs2D(5, 12),
		Faulty: []dist.ProcID{4},
		Seed:   12,
	}
	r1 := runConsensus(t, cfg)
	r2 := runConsensus(t, cfg)
	for id, o1 := range r1.Outputs {
		o2, ok := r2.Outputs[id]
		if !ok {
			t.Fatalf("process %d decided in run 1 but not 2", id)
		}
		same, err := polytope.Equal(o1, o2, 1e-12)
		if err != nil || !same {
			t.Errorf("process %d outputs differ across identical runs", id)
		}
	}
	if r1.Stats.Sends != r2.Stats.Sends {
		t.Errorf("message counts differ: %d vs %d", r1.Stats.Sends, r2.Stats.Sends)
	}
}

func TestBelowResilienceBoundRejected(t *testing.T) {
	cfg := RunConfig{
		Params: baseParams(4, 1, 2), // (d+2)f+1 = 5 > 4
		Inputs: inputs2D(4, 13),
	}
	if _, err := Run(cfg); err == nil {
		t.Error("run below the resilience bound should be rejected")
	}
}

// Property: validity + ε-agreement + optimality hold across random seeds,
// inputs, crash timings and schedulers (2-D, n=5, f=1).
func TestPropertiesRandomised(t *testing.T) {
	if testing.Short() {
		t.Skip("long property test")
	}
	for trial := 0; trial < 12; trial++ {
		seed := int64(trial * 977)
		rng := rand.New(rand.NewSource(seed))
		inputs := make([]geom.Point, 5)
		for i := range inputs {
			inputs[i] = pt(rng.Float64()*10, rng.Float64()*10)
		}
		faulty := dist.ProcID(rng.Intn(5))
		var scheds []dist.Scheduler
		scheds = append(scheds, nil, dist.NewDelayScheduler(faulty), dist.NewRoundRobinScheduler())
		cfg := RunConfig{
			Params:    baseParams(5, 1, 2),
			Inputs:    inputs,
			Faulty:    []dist.ProcID{faulty},
			Crashes:   []dist.CrashPlan{{Proc: faulty, AfterSends: rng.Intn(30)}},
			Seed:      seed,
			Scheduler: scheds[trial%3],
		}
		result, err := Run(cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rep, err := CheckAgreement(result)
		if err != nil || !rep.Holds {
			t.Errorf("trial %d: agreement %+v, %v", trial, rep, err)
		}
		if err := CheckValidity(result, &cfg); err != nil {
			t.Errorf("trial %d: validity: %v", trial, err)
		}
		if err := CheckOptimality(result); err != nil {
			t.Errorf("trial %d: optimality: %v", trial, err)
		}
	}
}

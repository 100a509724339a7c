package vectorconsensus

import (
	"math"
	"math/rand"
	"testing"

	"chc/internal/core"
	"chc/internal/dist"
	"chc/internal/geom"
	"chc/internal/stablevector"
	"chc/internal/telemetry"
)

func pt(coords ...float64) geom.Point { return geom.NewPoint(coords...) }

func params(n, f, d int) core.Params {
	return core.Params{
		N: n, F: f, D: d,
		Epsilon:    0.05,
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

func TestSafePoint1D(t *testing.T) {
	// X = {0, 1, 2, 10}, f=1: intersection is [1,2]; centroid 1.5.
	p := core.Params{N: 4, F: 1, D: 1, Epsilon: 0.1, InputUpper: 10}
	sp, err := SafePoint(p, []geom.Point{pt(0), pt(1), pt(2), pt(10)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sp[0]-1.5) > 1e-9 {
		t.Errorf("safe point = %v, want 1.5", sp)
	}
}

func TestRunAgreesAndValid(t *testing.T) {
	inputs := inputs2D(5, 1)
	inputs[2] = pt(10, 0) // incorrect input at the faulty process
	cfg := core.RunConfig{
		Params:  params(5, 1, 2),
		Inputs:  inputs,
		Faulty:  []dist.ProcID{2},
		Crashes: []dist.CrashPlan{{Proc: 2, AfterSends: 9}},
		Seed:    1,
	}
	result, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range result.FaultFree() {
		if _, ok := result.Outputs[id]; !ok {
			t.Fatalf("fault-free process %d did not decide", id)
		}
	}
	if d := result.MaxPairwiseDistance(); d > cfg.Params.Epsilon {
		t.Errorf("ε-agreement violated: %v > %v", d, cfg.Params.Epsilon)
	}
	if err := CheckValidity(result, &cfg); err != nil {
		t.Error(err)
	}
	if result.Rounds == 0 {
		t.Error("expected at least one averaging round")
	}
}

func TestRunNoFaults(t *testing.T) {
	cfg := core.RunConfig{
		Params: params(5, 1, 2),
		Inputs: inputs2D(5, 2),
		Seed:   2,
	}
	result, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(result.Outputs) != 5 {
		t.Fatalf("%d outputs, want 5", len(result.Outputs))
	}
	if d := result.MaxPairwiseDistance(); d > cfg.Params.Epsilon {
		t.Errorf("agreement: %v > %v", d, cfg.Params.Epsilon)
	}
	if err := CheckValidity(result, &cfg); err != nil {
		t.Error(err)
	}
}

func TestIdenticalInputsExact(t *testing.T) {
	inputs := make([]geom.Point, 5)
	for i := range inputs {
		inputs[i] = pt(4, 2)
	}
	cfg := core.RunConfig{Params: params(5, 1, 2), Inputs: inputs, Seed: 3}
	result, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for id, out := range result.Outputs {
		if !geom.Equal(out, pt(4, 2), 1e-9) {
			t.Errorf("process %d decided %v, want (4,2)", id, out)
		}
	}
}

func TestNewProcessValidation(t *testing.T) {
	if _, err := NewProcess(params(4, 1, 2), 0, pt(0, 0)); err == nil {
		t.Error("n below bound should error")
	}
	proc, err := NewProcess(params(5, 1, 2), 0, pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proc.Output(); err == nil {
		t.Error("Output before decision should error")
	}
}

func TestAdversarialSchedule(t *testing.T) {
	cfg := core.RunConfig{
		Params:    params(5, 1, 2),
		Inputs:    inputs2D(5, 4),
		Faulty:    []dist.ProcID{1},
		Seed:      4,
		Scheduler: dist.NewDelayScheduler(1),
	}
	result, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := result.MaxPairwiseDistance(); d > cfg.Params.Epsilon {
		t.Errorf("agreement under delay scheduler: %v", d)
	}
	if err := CheckValidity(result, &cfg); err != nil {
		t.Error(err)
	}
}

// TestRunIsAlgorithmCC: a vector run sends exactly Algorithm CC's messages —
// the stable vector's reports, then n(n-1)·t_end cc.state broadcasts — and
// every process records h_i[0] and each h_i[t] as the one point it holds.
func TestRunIsAlgorithmCC(t *testing.T) {
	cfg := core.RunConfig{Params: params(5, 1, 2), Inputs: inputs2D(5, 5), Seed: 5}
	result, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, tEnd := cfg.Params.N, cfg.Params.TEnd()
	kinds := result.Stats.KindCounts
	if kinds["cc.state"] != n*(n-1)*tEnd || kinds["cc.state"]+kinds[stablevector.KindReport] != result.Stats.Sends {
		t.Errorf("message kinds %v, want %d cc.state plus the stable vector's reports", kinds, n*(n-1)*tEnd)
	}
	if result.Rounds != tEnd {
		t.Errorf("rounds = %d, want t_end = %d", result.Rounds, tEnd)
	}
	for id, tr := range result.Traces {
		if len(tr.H0) != 1 || len(tr.Rounds) != tEnd {
			t.Fatalf("process %d: |h[0]| = %d, %d round records", id, len(tr.H0), len(tr.Rounds))
		}
		xi := make([]geom.Point, len(tr.R0Entries))
		for k, e := range tr.R0Entries {
			xi[k] = e.Value
		}
		if safe, err := SafePoint(cfg.Params, xi); err != nil || !geom.Equal(safe, tr.H0[0], 0) {
			t.Errorf("process %d: h[0] = %v, want SafePoint(R_i) = %v (%v)", id, tr.H0, safe, err)
		}
		last := tr.Rounds[tEnd-1].State
		if len(last) != 1 || !geom.Equal(last[0], result.Outputs[id], 0) {
			t.Errorf("process %d: h[t_end] = %v, decision %v", id, last, result.Outputs[id])
		}
	}
}

// TestMetricsCarryVectorLabel: a vector run counts into the shared
// chc_consensus_* families under protocol="vector" and leaves "cc" alone.
func TestMetricsCarryVectorLabel(t *testing.T) {
	prev := telemetry.Enable(true)
	defer telemetry.Enable(prev)
	value := func(snap *telemetry.Snapshot, family, protocol string) float64 {
		for _, s := range snap.Find(family).Samples {
			if s.Labels["protocol"] != protocol {
				continue
			}
			if s.Histogram != nil {
				return float64(s.Histogram.Count)
			}
			return s.Value
		}
		return 0
	}
	cfg := core.RunConfig{Params: params(5, 1, 2), Inputs: inputs2D(5, 6), Seed: 6}
	before := telemetry.Default().Snapshot()
	result, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, tEnd := float64(cfg.Params.N), float64(cfg.Params.TEnd())
	for _, c := range []struct {
		family  string
		vec, cc float64
	}{
		{"chc_consensus_rounds_started_total", n * tEnd, 0},
		{"chc_consensus_decided_total", n, 0},
		{"chc_consensus_decided_round", n, 0},
	} {
		if got := value(result.Telemetry, c.family, "vector") - value(before, c.family, "vector"); got != c.vec {
			t.Errorf("%s{protocol=\"vector\"} grew by %v, want %v", c.family, got, c.vec)
		}
		if got := value(result.Telemetry, c.family, "cc") - value(before, c.family, "cc"); got != c.cc {
			t.Errorf("%s{protocol=\"cc\"} grew by %v during a vector run", c.family, got)
		}
	}
}

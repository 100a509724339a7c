package chc_test

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"chc"
)

func inputs2D(n int, seed int64) []chc.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]chc.Point, n)
	for i := range pts {
		pts[i] = chc.NewPoint(rng.Float64()*10, rng.Float64()*10)
	}
	return pts
}

func params() chc.Params {
	return chc.Params{
		N: 5, F: 1, D: 2,
		Epsilon:    0.05,
		InputLower: 0, InputUpper: 10,
	}
}

func TestPublicRun(t *testing.T) {
	cfg := chc.RunConfig{
		Params:  params(),
		Inputs:  inputs2D(5, 1),
		Faulty:  []chc.ProcID{1},
		Crashes: []chc.CrashPlan{{Proc: 1, AfterSends: 6}},
		Seed:    1,
	}
	result, err := chc.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := chc.CheckAgreement(result)
	if err != nil || !rep.Holds {
		t.Fatalf("agreement: %+v, %v", rep, err)
	}
	if err := chc.CheckValidity(result, &cfg); err != nil {
		t.Error(err)
	}
	if err := chc.CheckOptimality(result); err != nil {
		t.Error(err)
	}
	iz, err := chc.OptimalityReference(result)
	if err != nil {
		t.Fatal(err)
	}
	if iz.NumVertices() == 0 {
		t.Error("I_Z should be non-empty")
	}
	hull, err := chc.CorrectInputHull(&cfg)
	if err != nil || hull.NumVertices() == 0 {
		t.Errorf("correct hull: %v", err)
	}
}

func TestPublicPolytopeOps(t *testing.T) {
	a, err := chc.NewPolytope([]chc.Point{
		chc.NewPoint(0, 0), chc.NewPoint(2, 0), chc.NewPoint(2, 2), chc.NewPoint(0, 2),
	}, chc.DefaultEps)
	if err != nil {
		t.Fatal(err)
	}
	b := a.Translate(chc.NewPoint(1, 0))
	inter, err := chc.Intersect([]*chc.Polytope{a, b}, chc.DefaultEps)
	if err != nil {
		t.Fatal(err)
	}
	vol, err := inter.Volume(chc.DefaultEps)
	if err != nil || math.Abs(vol-2) > 1e-6 {
		t.Errorf("intersection volume = %v, want 2", vol)
	}
	avg, err := chc.AveragePolytopes([]*chc.Polytope{a, b}, chc.DefaultEps)
	if err != nil {
		t.Fatal(err)
	}
	d, err := chc.Hausdorff(avg, a.Translate(chc.NewPoint(0.5, 0)), chc.DefaultEps)
	if err != nil || d > 1e-6 {
		t.Errorf("average polytope mismatch: d = %v, %v", d, err)
	}
	lc, err := chc.LinearCombination([]*chc.Polytope{a, b}, []float64{0.25, 0.75}, chc.DefaultEps)
	if err != nil {
		t.Fatal(err)
	}
	dmax, err := chc.MaxPairwiseHausdorff([]*chc.Polytope{a, b, lc}, chc.DefaultEps)
	if err != nil || dmax <= 0 {
		t.Errorf("max pairwise = %v, %v", dmax, err)
	}
	if chc.PointPolytope(chc.NewPoint(1)).NumVertices() != 1 {
		t.Error("PointPolytope broken")
	}
}

func TestPublicOptimize(t *testing.T) {
	cfg := chc.RunConfig{
		Params: params(),
		Inputs: inputs2D(5, 2),
		Seed:   2,
	}
	cost := chc.QuadraticCost{Target: chc.NewPoint(5, 5), Scale: 1, Radius: 15}
	res, err := chc.Optimize(cfg, cost, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if spread := res.MaxValueSpread(); spread > 0.5 {
		t.Errorf("value spread %v > beta", spread)
	}
	// Standalone minimisation.
	p, err := chc.NewPolytope(cfg.Inputs, chc.DefaultEps)
	if err != nil {
		t.Fatal(err)
	}
	fv, err := chc.Minimize(chc.LinearCost{A: chc.NewPoint(1, 0)}, p, chc.MinimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fv.X == nil {
		t.Error("empty minimiser")
	}
}

func TestPublicVectorConsensus(t *testing.T) {
	cfg := chc.RunConfig{
		Params: params(),
		Inputs: inputs2D(5, 3),
		Seed:   3,
	}
	res, err := chc.RunVectorConsensus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.MaxPairwiseDistance(); d > cfg.Params.Epsilon {
		t.Errorf("vector consensus agreement: %v", d)
	}
}

func TestPublicTraceAnalysis(t *testing.T) {
	cfg := chc.RunConfig{
		Params: params(),
		Inputs: inputs2D(5, 4),
		Seed:   4,
	}
	result, err := chc.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := chc.AnalyzeTrace(result)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.CheckLemma3(1e-9); err != nil {
		t.Error(err)
	}
	if err := a.VerifyTheorem1(result, []int{1}, 1e-6); err != nil {
		t.Error(err)
	}
}

func TestPublicSchedulers(t *testing.T) {
	for _, sched := range []chc.Scheduler{
		chc.NewRandomScheduler(),
		chc.NewRoundRobinScheduler(),
		chc.NewDelayScheduler(0),
		chc.NewSplitScheduler(0, 1),
	} {
		cfg := chc.RunConfig{
			Params:    params(),
			Inputs:    inputs2D(5, 5),
			Faulty:    []chc.ProcID{0},
			Seed:      5,
			Scheduler: sched,
		}
		result, err := chc.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := chc.CheckAgreement(result)
		if err != nil || !rep.Holds {
			t.Errorf("agreement under %T: %+v, %v", sched, rep, err)
		}
	}
}

func TestPublicRunInProcess(t *testing.T) {
	cfg := chc.RunConfig{
		Params: chc.Params{
			N: 5, F: 1, D: 2,
			Epsilon:    0.5, // fewer rounds: the concurrent run is heavier
			InputLower: 0, InputUpper: 10,
		},
		Inputs:    inputs2D(5, 6),
		Transport: chc.InProcess,
		Timeout:   60 * time.Second,
	}
	result, err := chc.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := chc.CheckAgreement(result)
	if err != nil || !rep.Holds {
		t.Fatalf("agreement: %+v, %v", rep, err)
	}
	if err := chc.CheckValidity(result, &cfg); err != nil {
		t.Error(err)
	}
}

func TestPublicRunTCP(t *testing.T) {
	cfg := chc.RunConfig{
		Params: chc.Params{
			N: 4, F: 0, D: 1,
			Epsilon:    0.5,
			InputLower: 0, InputUpper: 10,
		},
		Inputs:    []chc.Point{chc.NewPoint(1), chc.NewPoint(4), chc.NewPoint(7), chc.NewPoint(9)},
		Transport: chc.TCP,
		Timeout:   60 * time.Second,
	}
	result, err := chc.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(result.Outputs) != 4 {
		t.Fatalf("%d outputs, want 4", len(result.Outputs))
	}
	rep, err := chc.CheckAgreement(result)
	if err != nil || !rep.Holds {
		t.Fatalf("agreement: %+v, %v", rep, err)
	}
	if result.Stats.Bytes == 0 {
		t.Error("TCP run should account bytes")
	}
}

func TestPublicRunChaos(t *testing.T) {
	chaos := chc.LightChaos()
	cfg := chc.RunConfig{
		Params: chc.Params{
			N: 5, F: 1, D: 2,
			Epsilon:    0.5,
			InputLower: 0, InputUpper: 10,
		},
		Inputs:    inputs2D(5, 6),
		Transport: chc.InProcess,
		Timeout:   60 * time.Second,
		Env:       chc.Env{Chaos: &chaos, ChaosSeed: 4},
	}
	result, err := chc.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := chc.CheckAgreement(result)
	if err != nil || !rep.Holds {
		t.Fatalf("agreement under chaos: %+v, %v", rep, err)
	}
	if err := chc.CheckValidity(result, &cfg); err != nil {
		t.Error(err)
	}
	if result.Stats == nil || result.Stats.Net == nil {
		t.Fatal("chaos run must surface network stats")
	}
	net := result.Stats.Net
	if net.FramesSent == 0 || net.AcksSent == 0 {
		t.Errorf("reliable layer inactive: %+v", net)
	}
	if net.InjectedDrops+net.InjectedDups+net.InjectedDelays == 0 {
		t.Errorf("light chaos injected nothing: %+v", net)
	}
}

func TestPublicBatch(t *testing.T) {
	cfg := chc.BatchConfig{
		N: 5,
		Instances: []chc.BatchInstance{
			{Params: params(), Inputs: inputs2D(5, 30)},
			{Params: params(), Inputs: inputs2D(5, 31)},
		},
		Seed: 30,
	}
	result, err := chc.RunBatch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(result.Outputs) != 2 {
		t.Fatalf("%d instances, want 2", len(result.Outputs))
	}
	for k, outs := range result.Outputs {
		if len(outs) != 5 {
			t.Errorf("instance %d: %d outputs", k, len(outs))
		}
	}
}

// TestPublicServeSimulator: a service cannot run on the simulator, so an
// explicit Simulator transport, like the zero value, serves in-process.
func TestPublicServeSimulator(t *testing.T) {
	srv, err := chc.Serve(chc.ServiceConfig{N: 4, Transport: chc.Simulator})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := params()
	p.N = 4
	p.D = 1
	id, _, err := srv.Submit(chc.BatchInstance{Params: p, Inputs: []chc.Point{
		chc.NewPoint(1), chc.NewPoint(3), chc.NewPoint(6), chc.NewPoint(9),
	}})
	if err != nil {
		t.Fatal(err)
	}
	st, terminal, err := srv.Watch(id, time.Minute)
	if err != nil || !terminal || st.State != chc.ServiceDecided {
		t.Fatalf("state %v (terminal %v), err %v / %v", st.State, terminal, err, st.Err)
	}
	if len(st.Result.Outputs) != 4 {
		t.Fatalf("%d outputs, want 4", len(st.Result.Outputs))
	}
}

func TestPublicTraceJSON(t *testing.T) {
	cfg := chc.RunConfig{Params: params(), Inputs: inputs2D(5, 32), Seed: 32}
	result, err := chc.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := chc.WriteTraceJSON(&buf, result); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("exported trace is not valid JSON")
	}
}

func TestPublicByzantine(t *testing.T) {
	cfg := chc.ByzantineRunConfig{
		Params: chc.Params{
			N: 5, F: 1, D: 2,
			Epsilon:    0.2,
			InputLower: 0, InputUpper: 10,
		},
		Inputs: inputs2D(5, 8),
		Faults: []chc.ByzantineFault{{Proc: 1, Behavior: chc.ByzEquivocator}},
		Seed:   8,
	}
	result, err := chc.RunByzantine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := chc.CheckByzantineValidity(result, &cfg); err != nil {
		t.Error(err)
	}
	d, holds, err := chc.CheckByzantineAgreement(result)
	if err != nil || !holds {
		t.Errorf("agreement: %v %v %v", d, holds, err)
	}
	if len(result.Correct()) != 4 {
		t.Errorf("Correct() = %v", result.Correct())
	}
}

// TestPublicRunCrashRecovery exercises the public crash-recovery path: with
// Env.WALDir and a restart plan, process 2 is killed after 7 sends, and it
// recovers from its write-ahead log and decides like every other correct
// process.
func TestPublicRunCrashRecovery(t *testing.T) {
	cfg := chc.RunConfig{
		Params: chc.Params{
			N: 5, F: 1, D: 2,
			Epsilon:    0.5,
			InputLower: 0, InputUpper: 10,
		},
		Inputs:    inputs2D(5, 6),
		Transport: chc.InProcess,
		Timeout:   120 * time.Second,
		Env: chc.Env{
			WALDir:   t.TempDir(),
			Restarts: []chc.RestartPlan{{Proc: 2, KillAfterSends: 7, Downtime: 10 * time.Millisecond}},
		},
	}
	result, err := chc.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The killed process recovered: it must have decided, not crashed.
	if result.Crashed[chc.ProcID(2)] {
		t.Fatal("process 2 reported as crashed despite recovery")
	}
	if len(result.Outputs) != 5 {
		t.Fatalf("%d outputs, want 5 (restarted node must decide)", len(result.Outputs))
	}
	rep, err := chc.CheckAgreement(result)
	if err != nil || !rep.Holds {
		t.Fatalf("agreement across restart: %+v, %v", rep, err)
	}
	// No process is faulty here, so validity is against all five inputs.
	if err := chc.CheckValidity(result, &cfg); err != nil {
		t.Error(err)
	}
	if net := result.Stats.Net; net == nil || net.WALAppends == 0 || net.Resumes == 0 {
		t.Errorf("recovery counters missing: %+v", net)
	}
}

// TestPublicRunRefusals pins the configuration contract of Run: a field that
// means nothing on the chosen transport is refused with an error and a nil
// result, never silently ignored.
func TestPublicRunRefusals(t *testing.T) {
	chaos := chc.LightChaos()
	for _, tc := range []struct {
		name string
		set  func(*chc.RunConfig)
		want string // the refused field, named by the error
	}{
		{"Scheduler on TCP", func(c *chc.RunConfig) {
			c.Transport, c.Scheduler = chc.TCP, chc.NewRoundRobinScheduler()
		}, "schedulers"},
		{"MaxDeliveries on TCP", func(c *chc.RunConfig) { c.Transport, c.MaxDeliveries = chc.TCP, 1000 }, "MaxDeliveries"},
		{"Chaos on the simulator", func(c *chc.RunConfig) { c.Transport, c.Chaos = chc.Simulator, &chaos }, "Chaos"},
		{"WALDir on the simulator", func(c *chc.RunConfig) { c.Transport, c.WALDir = chc.Simulator, t.TempDir() }, "WALDir"},
		{"Restarts without WALDir", func(c *chc.RunConfig) {
			c.Transport = chc.InProcess
			c.Restarts = []chc.RestartPlan{{Proc: 2, KillAfterSends: 7, Downtime: time.Millisecond}}
		}, "Restarts requires WALDir"},
		{"unknown transport", func(c *chc.RunConfig) { c.Transport = chc.Transport(99) }, "unknown transport"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := chc.RunConfig{Params: params(), Inputs: inputs2D(5, 7), Timeout: time.Second}
			tc.set(&cfg)
			result, err := chc.Run(cfg)
			if err == nil || result != nil {
				t.Fatalf("Run = (%v, %v), want a nil result and an error", result, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name %q", err, tc.want)
			}
		})
	}
}

package multiplex

import (
	"math/rand"
	"testing"
	"time"

	"chc/internal/byzantine"
	"chc/internal/core"
	"chc/internal/dist"
	"chc/internal/engine"
	"chc/internal/geom"
	"chc/internal/polytope"
	"chc/internal/runtime"
)

func params(n, f, d int, eps float64) core.Params {
	return core.Params{
		N: n, F: f, D: d,
		Epsilon:    eps,
		InputLower: 0, InputUpper: 10,
	}
}

func randInputs(n, d int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, d)
		for j := range p {
			p[j] = rng.Float64() * 10
		}
		pts[i] = p
	}
	return pts
}

func TestBatchThreeInstances(t *testing.T) {
	const n = 5
	cfg := BatchConfig{
		N: n,
		Instances: []Instance{
			{Params: params(n, 1, 2, 0.1), Inputs: randInputs(n, 2, 1)},
			{Params: params(n, 1, 1, 0.05), Inputs: randInputs(n, 1, 2)},
			{Params: params(n, 1, 2, 0.2), Inputs: randInputs(n, 2, 3)},
		},
		Seed: 1,
	}
	result, err := RunBatch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k, outs := range result.Outputs {
		if len(outs) != n {
			t.Fatalf("instance %d: %d outputs, want %d", k, len(outs), n)
		}
		var polys []*polytope.Polytope
		for _, p := range outs {
			polys = append(polys, p)
		}
		d, err := polytope.MaxPairwiseHausdorff(polys, geom.DefaultEps)
		if err != nil {
			t.Fatal(err)
		}
		if d > cfg.Instances[k].Params.Epsilon {
			t.Errorf("instance %d: agreement %v > ε %v", k, d, cfg.Instances[k].Params.Epsilon)
		}
	}
}

func TestBatchIsolation(t *testing.T) {
	// Two instances with disjoint input ranges: instance outputs must stay
	// in their own ranges — no cross-instance leakage through the shared
	// network.
	const n = 5
	low := make([]geom.Point, n)
	high := make([]geom.Point, n)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < n; i++ {
		low[i] = geom.NewPoint(rng.Float64(), rng.Float64())      // in [0,1]^2
		high[i] = geom.NewPoint(9+rng.Float64(), 9+rng.Float64()) // in [9,10]^2
	}
	cfg := BatchConfig{
		N: n,
		Instances: []Instance{
			{Params: params(n, 1, 2, 0.1), Inputs: low},
			{Params: params(n, 1, 2, 0.1), Inputs: high},
		},
		Seed: 4,
	}
	result, err := RunBatch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range result.Outputs[0] {
		_, hi, err := p.BoundingBox()
		if err != nil || hi[0] > 1.01 || hi[1] > 1.01 {
			t.Errorf("instance 0 output escaped its input range: %v", p)
		}
	}
	for _, p := range result.Outputs[1] {
		lo, _, err := p.BoundingBox()
		if err != nil || lo[0] < 8.99 || lo[1] < 8.99 {
			t.Errorf("instance 1 output escaped its input range: %v", p)
		}
	}
}

func TestBatchWithCrash(t *testing.T) {
	const n = 5
	cfg := BatchConfig{
		N: n,
		Instances: []Instance{
			{Params: params(n, 1, 2, 0.1), Inputs: randInputs(n, 2, 5)},
			{Params: params(n, 1, 2, 0.1), Inputs: randInputs(n, 2, 6)},
		},
		Faulty:  []dist.ProcID{2},
		Crashes: []dist.CrashPlan{{Proc: 2, AfterSends: 25}},
		Seed:    5,
	}
	result, err := RunBatch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every fault-free process decides in every instance.
	for k, outs := range result.Outputs {
		for i := 0; i < n; i++ {
			if i == 2 {
				continue
			}
			if _, ok := outs[dist.ProcID(i)]; !ok {
				t.Errorf("instance %d: process %d did not decide", k, i)
			}
		}
	}
}

func TestBatchValidation(t *testing.T) {
	good := BatchConfig{
		N:         5,
		Instances: []Instance{{Params: params(5, 1, 2, 0.1), Inputs: randInputs(5, 2, 1)}},
	}
	bad := good
	bad.N = 0
	if _, err := RunBatch(bad); err == nil {
		t.Error("N=0 should error")
	}
	bad = good
	bad.Instances = nil
	if _, err := RunBatch(bad); err == nil {
		t.Error("empty batch should error")
	}
	bad = good
	bad.Instances = []Instance{{Params: params(4, 1, 2, 0.1), Inputs: randInputs(4, 2, 1)}}
	if _, err := RunBatch(bad); err == nil {
		t.Error("instance n mismatch should error")
	}
	bad = good
	bad.Instances = []Instance{{Params: params(5, 1, 2, 0.1), Inputs: randInputs(3, 2, 1)}}
	if _, err := RunBatch(bad); err == nil {
		t.Error("input count mismatch should error")
	}
	bad = good
	bad.Instances = []Instance{{
		Params: params(5, 1, 2, 0.1), Inputs: randInputs(5, 2, 1),
		Faults: []byzantine.Fault{{Proc: 0, Behavior: byzantine.Silent}},
	}}
	if _, err := RunBatch(bad); err == nil {
		t.Error("faults on a non-Byzantine instance should error")
	}
	bad = good
	bad.Instances = []Instance{{
		Params: params(5, 1, 2, 0.1), Inputs: randInputs(5, 2, 1),
		Protocol: ProtocolByzantine,
		Faults: []byzantine.Fault{
			{Proc: 0, Behavior: byzantine.Silent},
			{Proc: 0, Behavior: byzantine.Garbler},
		},
	}}
	if _, err := RunBatch(bad); err == nil {
		t.Error("duplicate Byzantine fault should error")
	}
	bad = good
	bad.Transport = engine.TransportChannel
	bad.Restarts = []runtime.RestartPlan{{Proc: 2, KillAfterSends: 7, Downtime: time.Millisecond}}
	if _, err := RunBatch(bad); err == nil {
		t.Error("Restarts without WALDir should error")
	}
}

// TestBatchHeterogeneous runs a CC instance, a vector-consensus instance,
// and a Byzantine instance with a live adversary over one simulated network.
func TestBatchHeterogeneous(t *testing.T) {
	const n = 5
	byzInputs := randInputs(n, 2, 11)
	byzParams := params(n, 1, 2, 0.2)
	byzParams.Model = core.IncorrectInputs
	cfg := BatchConfig{
		N: n,
		Instances: []Instance{
			{Params: params(n, 1, 2, 0.1), Inputs: randInputs(n, 2, 9)},
			{Params: params(n, 1, 2, 0.1), Inputs: randInputs(n, 2, 10), Protocol: ProtocolVector},
			{
				Params: byzParams, Inputs: byzInputs,
				Protocol: ProtocolByzantine,
				Faults: []byzantine.Fault{{
					Proc:     0,
					Behavior: byzantine.IncorrectInput,
					Input:    geom.NewPoint(-50, 50),
				}},
			},
		},
		Seed: 9,
	}
	result, err := RunBatch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(result.Outputs[0]) != n {
		t.Errorf("CC instance: %d outputs, want %d", len(result.Outputs[0]), n)
	}
	if len(result.Points[1]) != n {
		t.Errorf("vector instance: %d points, want %d", len(result.Points[1]), n)
	}
	// The Byzantine instance decides at every correct process, and validity
	// holds against the correct-input hull (the adversarial input from
	// process 0 must not drag outputs outside it).
	bzCfg := byzantine.RunConfig{Params: byzParams, Inputs: byzInputs, Faults: cfg.Instances[2].Faults}
	ref, err := byzantine.CorrectInputHull(&bzCfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		out, ok := result.Outputs[2][dist.ProcID(i)]
		if !ok {
			t.Fatalf("byzantine instance: process %d did not decide", i)
		}
		for _, v := range out.Vertices() {
			d, err := ref.Distance(v, geom.DefaultEps)
			if err != nil {
				t.Fatal(err)
			}
			if d > 1e-6 {
				t.Errorf("byzantine instance: process %d vertex %v at distance %v from correct hull", i, v, d)
			}
		}
	}
	// Rounds are accounted per instance.
	for k := range cfg.Instances {
		start := 0
		if k == 2 {
			start = 1 // the adversary has no decided round
		}
		for i := start; i < n; i++ {
			if result.Rounds[k][dist.ProcID(i)] <= 0 {
				t.Errorf("instance %d: process %d has no decided round", k, i)
			}
		}
	}
}

// TestBatchOverConcurrentRuntime drives the same batch with real goroutines
// (channel transport) instead of the simulator.
func TestBatchOverConcurrentRuntime(t *testing.T) {
	const n = 5
	cfg := BatchConfig{
		N: n,
		Instances: []Instance{
			{Params: params(n, 1, 2, 0.3), Inputs: randInputs(n, 2, 7)},
			{Params: params(n, 1, 1, 0.3), Inputs: randInputs(n, 1, 8)},
			{Params: params(n, 1, 2, 0.3), Inputs: randInputs(n, 2, 12), Protocol: ProtocolVector},
		},
		Transport: engine.TransportChannel,
	}
	result, err := RunBatch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k, outs := range result.Outputs[:2] {
		if len(outs) != n {
			t.Fatalf("instance %d: %d outputs, want %d", k, len(outs), n)
		}
		var polys []*polytope.Polytope
		for _, p := range outs {
			polys = append(polys, p)
		}
		d, err := polytope.MaxPairwiseHausdorff(polys, geom.DefaultEps)
		if err != nil {
			t.Fatal(err)
		}
		if d > cfg.Instances[k].Params.Epsilon {
			t.Errorf("instance %d: agreement %v > ε", k, d)
		}
	}
	if len(result.Points[2]) != n {
		t.Fatalf("vector instance: %d points, want %d", len(result.Points[2]), n)
	}
	if result.Cluster == nil {
		t.Error("networked batch should surface cluster stats")
	}
}

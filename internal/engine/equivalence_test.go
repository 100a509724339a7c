// Equivalence tests: the unified engine must be a refactor, not a rewrite.
// Each test reconstructs the bespoke run loop a protocol package had before
// the engine existed — bare processes driven directly by dist.NewSim — and
// requires the engine's outputs to match bit for bit (math.Float64bits on
// every vertex coordinate), across seeds and (n, f, d) grids.
package engine_test

import (
	"sync"
	"testing"
	"time"

	"chc/internal/byzantine"
	"chc/internal/chaos"
	"chc/internal/core"
	"chc/internal/dist"
	"chc/internal/engine"
	"chc/internal/geom"
	"chc/internal/multiplex"
	"chc/internal/polytope"
	"chc/internal/runtime"
	"chc/internal/vectorconsensus"
	"chc/internal/wire"
)

// gridInputs builds deterministic inputs without touching the seed the
// scheduler consumes.
func gridInputs(n, d int, seed int64) []geom.Point {
	inputs := make([]geom.Point, n)
	for i := range inputs {
		p := make([]float64, d)
		for c := range p {
			p[c] = float64((i*7+c*3+int(seed)*5)%11) + 0.25
		}
		inputs[i] = geom.NewPoint(p...)
	}
	return inputs
}

func polysBitwiseEqual(a, b *polytope.Polytope) bool {
	return geom.SameBitsList(a.SharedVertices(), b.SharedVertices())
}

var equivalenceGrid = []struct{ n, f, d int }{
	{5, 1, 2},
	{7, 2, 1},
	{6, 1, 2},
}

// TestCoreSimEquivalence: Algorithm CC under the engine reproduces the old
// bespoke simulator loop bit for bit, across seeds × (n, f, d).
func TestCoreSimEquivalence(t *testing.T) {
	for _, g := range equivalenceGrid {
		for seed := int64(1); seed <= 3; seed++ {
			params := core.Params{N: g.n, F: g.f, D: g.d, Epsilon: 0.05, InputLower: 0, InputUpper: 12}.WithDefaults()
			inputs := gridInputs(g.n, g.d, seed)

			// The legacy loop: bare processes, direct simulator drive.
			procs := make([]dist.Process, g.n)
			impls := make([]*core.Process, g.n)
			for i := range procs {
				p, err := core.NewProcess(params, dist.ProcID(i), inputs[i])
				if err != nil {
					t.Fatal(err)
				}
				impls[i] = p
				procs[i] = p
			}
			sim, err := dist.NewSim(dist.Config{N: g.n, Seed: seed, Sizer: wire.MessageSize}, procs)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sim.Run(); err != nil {
				t.Fatalf("legacy loop n=%d f=%d d=%d seed=%d: %v", g.n, g.f, g.d, seed, err)
			}

			// The unified engine, same configuration.
			result, err := core.Run(core.RunConfig{Params: params, Inputs: inputs, Seed: seed})
			if err != nil {
				t.Fatalf("engine n=%d f=%d d=%d seed=%d: %v", g.n, g.f, g.d, seed, err)
			}
			for i, legacy := range impls {
				want, err := legacy.Output()
				if err != nil {
					t.Fatalf("legacy process %d did not decide: %v", i, err)
				}
				got, ok := result.Outputs[dist.ProcID(i)]
				if !ok {
					t.Fatalf("engine process %d did not decide", i)
				}
				if !polysBitwiseEqual(want, got) {
					t.Errorf("n=%d f=%d d=%d seed=%d process %d: engine output differs from legacy loop",
						g.n, g.f, g.d, seed, i)
				}
			}
		}
	}
}

// TestCoreSimEquivalenceWithCrash repeats the bitwise comparison on an
// execution with a scheduled crash-stop fault: the engine's per-process host
// must not shift where the send budget lands.
func TestCoreSimEquivalenceWithCrash(t *testing.T) {
	const n, f, d = 5, 1, 2
	for seed := int64(1); seed <= 4; seed++ {
		params := core.Params{N: n, F: f, D: d, Epsilon: 0.05, InputLower: 0, InputUpper: 12}.WithDefaults()
		inputs := gridInputs(n, d, seed)
		crashes := []dist.CrashPlan{{Proc: 4, AfterSends: 11}}

		procs := make([]dist.Process, n)
		impls := make([]*core.Process, n)
		for i := range procs {
			p, err := core.NewProcess(params, dist.ProcID(i), inputs[i])
			if err != nil {
				t.Fatal(err)
			}
			impls[i] = p
			procs[i] = p
		}
		sim, err := dist.NewSim(dist.Config{N: n, Seed: seed, Crashes: crashes, Sizer: wire.MessageSize}, procs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatalf("legacy loop seed=%d: %v", seed, err)
		}

		result, err := core.Run(core.RunConfig{
			Params: params, Inputs: inputs, Seed: seed,
			Faulty: []dist.ProcID{4}, Crashes: crashes,
		})
		if err != nil {
			t.Fatalf("engine seed=%d: %v", seed, err)
		}
		for i, legacy := range impls {
			want, lerr := legacy.Output()
			got, gok := result.Outputs[dist.ProcID(i)]
			if (lerr == nil) != gok {
				t.Fatalf("seed=%d process %d: legacy decided=%v, engine decided=%v", seed, i, lerr == nil, gok)
			}
			if lerr != nil {
				continue
			}
			if !polysBitwiseEqual(want, got) {
				t.Errorf("seed=%d process %d: engine output differs from legacy loop under crash", seed, i)
			}
		}
	}
}

// TestVectorSimEquivalence: the vector-consensus baseline under the engine
// reproduces its old bespoke loop bit for bit.
func TestVectorSimEquivalence(t *testing.T) {
	for _, g := range equivalenceGrid {
		for seed := int64(1); seed <= 3; seed++ {
			params := core.Params{N: g.n, F: g.f, D: g.d, Epsilon: 0.05, InputLower: 0, InputUpper: 12}.WithDefaults()
			inputs := gridInputs(g.n, g.d, seed)

			procs := make([]dist.Process, g.n)
			impls := make([]*vectorconsensus.Process, g.n)
			for i := range procs {
				p, err := vectorconsensus.NewProcess(params, dist.ProcID(i), inputs[i])
				if err != nil {
					t.Fatal(err)
				}
				impls[i] = p
				procs[i] = p
			}
			sim, err := dist.NewSim(dist.Config{N: g.n, Seed: seed, Sizer: wire.MessageSize}, procs)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sim.Run(); err != nil {
				t.Fatalf("legacy loop n=%d seed=%d: %v", g.n, seed, err)
			}

			result, err := vectorconsensus.Run(core.RunConfig{Params: params, Inputs: inputs, Seed: seed})
			if err != nil {
				t.Fatalf("engine n=%d seed=%d: %v", g.n, seed, err)
			}
			for i, legacy := range impls {
				want, err := legacy.Output()
				if err != nil {
					t.Fatalf("legacy process %d did not decide: %v", i, err)
				}
				got, ok := result.Outputs[dist.ProcID(i)]
				if !ok {
					t.Fatalf("engine process %d did not decide", i)
				}
				if !geom.SameBits(want, got) {
					t.Errorf("n=%d f=%d d=%d seed=%d process %d: engine point differs from legacy loop",
						g.n, g.f, g.d, seed, i)
				}
			}
		}
	}
}

// TestByzantineSimEquivalence: the Byzantine-compiled protocol under the
// engine reproduces its old bespoke loop bit for bit, with a live adversary.
func TestByzantineSimEquivalence(t *testing.T) {
	const n, f, d = 5, 1, 2
	adversary := dist.ProcID(4)
	badInput := geom.NewPoint(-3, 17)
	for seed := int64(1); seed <= 3; seed++ {
		params := core.Params{N: n, F: f, D: d, Epsilon: 0.1, InputLower: 0, InputUpper: 12}.WithDefaults()
		inputs := gridInputs(n, d, seed)

		procs := make([]dist.Process, n)
		impls := make([]*byzantine.Process, n)
		for i := range procs {
			id := dist.ProcID(i)
			if id == adversary {
				p, err := byzantine.NewAdversary(params, id, byzantine.IncorrectInput, badInput)
				if err != nil {
					t.Fatal(err)
				}
				procs[i] = p
				continue
			}
			p, err := byzantine.NewProcess(params, id, inputs[i])
			if err != nil {
				t.Fatal(err)
			}
			impls[i] = p
			procs[i] = p
		}
		sim, err := dist.NewSim(dist.Config{N: n, Seed: seed, Sizer: wire.MessageSize}, procs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatalf("legacy loop seed=%d: %v", seed, err)
		}

		result, err := byzantine.Run(byzantine.RunConfig{
			Params: params, Inputs: inputs, Seed: seed,
			Faults: []byzantine.Fault{{Proc: adversary, Behavior: byzantine.IncorrectInput, Input: badInput}},
		})
		if err != nil {
			t.Fatalf("engine seed=%d: %v", seed, err)
		}
		for i, legacy := range impls {
			if legacy == nil {
				continue
			}
			want, err := legacy.Output()
			if err != nil {
				t.Fatalf("legacy process %d did not decide: %v", i, err)
			}
			got, ok := result.Outputs[dist.ProcID(i)]
			if !ok {
				t.Fatalf("engine process %d did not decide", i)
			}
			if !polysBitwiseEqual(want, got) {
				t.Errorf("seed=%d process %d: engine output differs from legacy loop", seed, i)
			}
		}
	}
}

// kindEcho is a minimal protocol that broadcasts one message with a fixed
// kind string and waits to hear from everyone else. Its kinds deliberately
// contain the old multiplexer's "iK|" prefix convention, which used to be a
// demux landmine: a protocol whose own kind started with such a prefix was
// mis-split. The engine must carry any kind byte-for-byte.
type kindEcho struct {
	id   dist.ProcID
	n    int
	kind string

	mu  sync.Mutex
	got []dist.Message
}

func (p *kindEcho) Init(ctx dist.Context) {
	ctx.Broadcast(p.kind, 1, nil)
}

func (p *kindEcho) Deliver(_ dist.Context, msg dist.Message) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.got = append(p.got, msg)
}

func (p *kindEcho) Done() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.got) >= p.n-1
}

func (p *kindEcho) received() []dist.Message {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]dist.Message(nil), p.got...)
}

// kindIsolationSpec builds three instances whose kinds collide with the old
// string-prefix namespacing ("i3|val" was exactly the shape the old
// splitKind mis-parsed).
func kindIsolationSpec(n int, kinds []string) engine.Spec {
	spec := engine.Spec{N: n}
	for _, kind := range kinds {
		kind := kind
		spec.Instances = append(spec.Instances, engine.InstanceSpec{
			New: func(id dist.ProcID) (dist.Process, error) {
				return &kindEcho{id: id, n: n, kind: kind}, nil
			},
		})
	}
	return spec
}

func checkKindIsolation(t *testing.T, res *engine.Result, n int, kinds []string) {
	t.Helper()
	for k, kind := range kinds {
		for i := 0; i < n; i++ {
			sub := res.Sub(k, dist.ProcID(i)).(*kindEcho)
			msgs := sub.received()
			if len(msgs) != n-1 {
				t.Fatalf("instance %d process %d: %d messages, want %d", k, i, len(msgs), n-1)
			}
			for _, m := range msgs {
				if m.Kind != kind {
					t.Errorf("instance %d process %d: kind %q leaked in (own kind %q)", k, i, m.Kind, kind)
				}
				if m.Instance != k {
					t.Errorf("instance %d process %d: message stamped instance %d", k, i, m.Instance)
				}
				if m.From == dist.ProcID(i) {
					t.Errorf("instance %d process %d: received own message", k, i)
				}
			}
		}
	}
}

// TestInstanceKindIsolation proves the satellite regression claim: instance
// routing is structural, so kinds containing "|" — including the exact
// "i3|val" shape that broke the old string-prefix demux — round-trip
// byte-for-byte and never cross instances, on the simulator and over real
// TCP sockets (where the wire codec serialises the instance field).
func TestInstanceKindIsolation(t *testing.T) {
	const n = 4
	kinds := []string{"i3|val", "val", "a|b|c"}
	for _, transport := range []engine.Transport{engine.TransportSim, engine.TransportTCP} {
		res, err := engine.Run(kindIsolationSpec(n, kinds), engine.Options{Transport: transport, Seed: 7, Timeout: 30 * time.Second})
		if err != nil {
			t.Fatalf("%v: %v", transport, err)
		}
		checkKindIsolation(t, res, n, kinds)
	}
}

// TestBatchBitwiseEqualAcrossTransports is the acceptance-criteria cross-
// transport check: with F = 0 every process waits for all n messages each
// round, so outputs are schedule-independent — and a heterogeneous batch
// must therefore produce identical bits over the simulator, the channel
// runtime, and TCP with chaos.
func TestBatchBitwiseEqualAcrossTransports(t *testing.T) {
	const n, d = 4, 2
	params := core.Params{N: n, F: 0, D: d, Epsilon: 0.05, InputLower: 0, InputUpper: 12}
	base := multiplex.BatchConfig{
		N: n,
		Instances: []multiplex.Instance{
			{Params: params, Inputs: gridInputs(n, d, 3)},
			{Params: params, Inputs: gridInputs(n, d, 4), Protocol: multiplex.ProtocolVector},
		},
		Seed:    9,
		Timeout: 60 * time.Second,
	}
	light := chaos.Light()
	run := func(transport engine.Transport, withChaos bool) *multiplex.BatchResult {
		cfg := base
		cfg.Transport = transport
		if withChaos {
			cfg.Chaos = &light
			cfg.ChaosSeed = 5
		}
		res, err := multiplex.RunBatch(cfg)
		if err != nil {
			t.Fatalf("%v: %v", transport, err)
		}
		return res
	}
	ref := run(engine.TransportSim, false)
	for _, alt := range []*multiplex.BatchResult{
		run(engine.TransportChannel, false),
		run(engine.TransportTCP, true),
	} {
		for i := 0; i < n; i++ {
			id := dist.ProcID(i)
			if !polysBitwiseEqual(ref.Outputs[0][id], alt.Outputs[0][id]) {
				t.Errorf("process %d: CC batch output differs across transports", i)
			}
			if !geom.SameBits(ref.Points[1][id], alt.Points[1][id]) {
				t.Errorf("process %d: vector batch output differs across transports", i)
			}
		}
	}
}

// TestNetworkedRecoveryVectorByzantine exercises what was impossible before
// the unified engine: the vector-consensus baseline and the Byzantine-
// compiled protocol running over the networked runtime with chaos injection,
// write-ahead logging, and a kill-and-restart fault — in one execution.
func TestNetworkedRecoveryVectorByzantine(t *testing.T) {
	const n, f, d = 5, 1, 2
	params := core.Params{N: n, F: f, D: d, Epsilon: 0.1, InputLower: 0, InputUpper: 12}.WithDefaults()
	vecInputs := gridInputs(n, d, 21)
	byzInputs := gridInputs(n, d, 22)
	adversary := dist.ProcID(4)
	bcfg := byzantine.RunConfig{
		Params: params, Inputs: byzInputs,
		Faults: []byzantine.Fault{{Proc: adversary, Behavior: byzantine.IncorrectInput, Input: geom.NewPoint(-5, 40)}},
	}
	if err := byzantine.Validate(bcfg); err != nil {
		t.Fatal(err)
	}
	light := chaos.Light()
	res, err := engine.Run(
		engine.Spec{N: n, Instances: []engine.InstanceSpec{
			vectorconsensus.Spec(core.RunConfig{Params: params, Inputs: vecInputs}),
			byzantine.Spec(bcfg),
		}},
		engine.Options{
			Transport: engine.TransportChannel,
			Env: runtime.Env{
				Chaos: &light, ChaosSeed: 3,
				WALDir:   t.TempDir(),
				Restarts: []runtime.RestartPlan{{Proc: 1, KillAfterSends: 10, Downtime: 5 * time.Millisecond}},
			},
			Timeout: 120 * time.Second,
		})
	if err != nil {
		t.Fatal(err)
	}

	// Every process — including the restarted node 1 — decides the vector
	// instance, inside the input hull.
	vecHull, err := polytope.New(vecInputs, geom.DefaultEps)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		pt, err := res.Sub(0, dist.ProcID(i)).(*vectorconsensus.Process).Output()
		if err != nil {
			t.Fatalf("vector instance, process %d: %v", i, err)
		}
		if dd, derr := vecHull.Distance(pt, geom.DefaultEps); derr != nil || dd > 1e-6 {
			t.Errorf("vector instance, process %d: output %v outside input hull (d=%g, err=%v)", i, pt, dd, derr)
		}
	}

	// Every correct process decides the Byzantine instance, inside the hull
	// of CORRECT inputs (the adversary's incorrect input must not displace
	// the decisions).
	var correctPts []geom.Point
	for i, x := range byzInputs {
		if dist.ProcID(i) != adversary {
			correctPts = append(correctPts, x)
		}
	}
	byzHull, err := polytope.New(correctPts, geom.DefaultEps)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		id := dist.ProcID(i)
		if id == adversary {
			continue
		}
		out, err := res.Sub(1, id).(*byzantine.Process).Output()
		if err != nil {
			t.Fatalf("byzantine instance, process %d: %v", i, err)
		}
		for _, v := range out.Vertices() {
			if dd, derr := byzHull.Distance(v, geom.DefaultEps); derr != nil || dd > 1e-6 {
				t.Errorf("byzantine instance, process %d: vertex %v outside correct-input hull", i, v)
			}
		}
	}

	// The fault stack must actually have been exercised.
	if res.Stats.Net == nil || res.Stats.Net.WALAppends == 0 {
		t.Error("no WAL appends recorded")
	}
	if res.Stats.Net != nil && res.Stats.Net.Resumes == 0 {
		t.Error("no link resumptions recorded despite the restart plan")
	}
	if res.Stats.Net != nil && res.Stats.Net.InjectedDrops == 0 {
		t.Error("chaos injected no drops")
	}
}

package runtime_test

import (
	"os"
	"testing"
	"time"

	"chc/internal/chaos"
	"chc/internal/core"
	"chc/internal/dist"
	"chc/internal/geom"
	"chc/internal/polytope"
	"chc/internal/runtime"
)

// matrixProfiles are the chaos profiles of the acceptance matrix: pure
// loss, loss+dup+jitter, and the full heavy profile (>= 20% drop, dup,
// delay jitter, transient partition of process 0).
func matrixProfiles() []chaos.Profile {
	return []chaos.Profile{
		{Drop: 0.25},
		{Drop: 0.20, Dup: 0.10, DelayMin: 50 * time.Microsecond, DelayMax: time.Millisecond},
		chaos.Heavy(),
	}
}

// runChaosConsensus executes one full Algorithm CC instance over the
// in-process transport with the given chaos profile and crash plans, then
// checks that every live process terminated with a decision and that every
// output lies inside the validity hull (convex hull of non-faulty inputs).
func runChaosConsensus(t *testing.T, profile chaos.Profile, crashes []dist.CrashPlan, seed int64) runtime.ClusterStats {
	t.Helper()
	const n, f = 5, 1
	params := core.Params{N: n, F: f, D: 2, Epsilon: 0.05, InputLower: 0, InputUpper: 10}.WithDefaults()
	inputs := make([]geom.Point, n)
	for i := range inputs {
		inputs[i] = geom.NewPoint(float64((i*3+int(seed))%11), float64((i*7+2*int(seed))%11))
	}
	cfg := core.RunConfig{Params: params, Inputs: inputs, Seed: seed, Crashes: crashes}
	for _, c := range crashes {
		cfg.Faulty = append(cfg.Faulty, c.Proc)
	}

	procs := make([]dist.Process, n)
	impls := make([]*core.Process, n)
	for i := 0; i < n; i++ {
		proc, err := core.NewProcess(params, dist.ProcID(i), inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		impls[i] = proc
		procs[i] = proc
	}
	c, err := runtime.NewChannelCluster(procs, runtime.Config{
		Env:     runtime.Env{Chaos: &profile, ChaosSeed: seed},
		Crashes: crashes,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(60 * time.Second); err != nil {
		t.Fatalf("profile %v seed %d: %v", profile, seed, err)
	}

	result := &core.RunResult{
		Params:  params,
		Outputs: make(map[dist.ProcID]*polytope.Polytope),
		Crashed: make(map[dist.ProcID]bool),
		Faulty:  make(map[dist.ProcID]bool),
		Traces:  make(map[dist.ProcID]core.Trace),
	}
	for _, id := range cfg.Faulty {
		result.Faulty[id] = true
	}
	for i, proc := range impls {
		id := dist.ProcID(i)
		out, oerr := proc.Output()
		if oerr != nil {
			result.Crashed[id] = true
			continue
		}
		result.Outputs[id] = out
	}
	// Termination: every fault-free process must have decided despite the
	// chaos (crashed-per-plan processes are exempt).
	for _, id := range result.FaultFree() {
		if _, ok := result.Outputs[id]; !ok {
			t.Errorf("profile %v seed %d: fault-free process %d did not decide", profile, seed, id)
		}
	}
	// Validity: every decided output inside the hull of non-faulty inputs.
	if err := core.CheckValidity(result, &cfg); err != nil {
		t.Errorf("profile %v seed %d: validity violated: %v", profile, seed, err)
	}
	return c.Stats()
}

// TestChaosMatrix is the acceptance matrix: seeds x chaos profiles x crash
// plans, asserting termination + validity on every cell and non-zero
// reliability counters in aggregate.
func TestChaosMatrix(t *testing.T) {
	seeds := []int64{1, 2}
	var agg dist.NetStats
	for _, seed := range seeds {
		for pi, profile := range matrixProfiles() {
			for ci, crashes := range [][]dist.CrashPlan{
				nil,
				{{Proc: 4, AfterSends: 15}}, // up to f = 1 crash, mid-broadcast
			} {
				st := runChaosConsensus(t, profile, crashes, seed)
				if st.Net.InjectedDrops == 0 {
					t.Errorf("seed %d profile %d crash-set %d: chaos injected no drops", seed, pi, ci)
				}
				agg.Retransmits += st.Net.Retransmits
				agg.DupSuppressed += st.Net.DupSuppressed
				agg.OutOfOrder += st.Net.OutOfOrder
				agg.InjectedDups += st.Net.InjectedDups
				agg.PartitionDrops += st.Net.PartitionDrops
			}
		}
	}
	// The reliability layer must visibly do its job somewhere in the matrix.
	if agg.Retransmits == 0 {
		t.Error("no retransmits across the whole chaos matrix")
	}
	if agg.DupSuppressed == 0 {
		t.Error("no duplicate suppressions across the whole chaos matrix")
	}
	if agg.InjectedDups == 0 {
		t.Error("no injected duplicates across the whole chaos matrix")
	}
	if agg.PartitionDrops == 0 {
		t.Error("the heavy profile's partition never dropped a frame")
	}
}

// TestChaosReproducibleCounters runs the same cell twice and requires the
// outcome (all outputs valid, counters non-zero) to be stable; exact
// counter equality is not required because retransmission timing under real
// concurrency varies, but the seeded fault plan guarantees both runs face
// >0 injected faults on the same links.
func TestChaosReproducibleCounters(t *testing.T) {
	a := runChaosConsensus(t, matrixProfiles()[0], nil, 9)
	b := runChaosConsensus(t, matrixProfiles()[0], nil, 9)
	if a.Net.InjectedDrops == 0 || b.Net.InjectedDrops == 0 {
		t.Errorf("seeded fault plan produced no drops: %d vs %d", a.Net.InjectedDrops, b.Net.InjectedDrops)
	}
	if a.Sends == 0 || b.Sends == 0 {
		t.Error("no protocol sends recorded")
	}
}

// TestChaosSoak is the long-running matrix (many seeds, full heavy
// profile). It is opt-in via CHC_CHAOS_SOAK so tier-1 stays fast; run it
// with `make soak`.
func TestChaosSoak(t *testing.T) {
	if os.Getenv("CHC_CHAOS_SOAK") == "" {
		t.Skip("set CHC_CHAOS_SOAK=1 (or run `make soak`) to enable the chaos soak")
	}
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	for seed := int64(1); seed <= 20; seed++ {
		for _, crashes := range [][]dist.CrashPlan{
			nil,
			{{Proc: 4, AfterSends: int(seed) * 3 % 40}},
		} {
			runChaosConsensus(t, chaos.Heavy(), crashes, seed)
		}
	}
}

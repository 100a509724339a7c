package core

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"chc/internal/dist"
	"chc/internal/engine"
	"chc/internal/geom"
	"chc/internal/telemetry"
	"chc/internal/wire"
)

// TestMain turns on the full "every vertex is extreme" check of received
// d >= 3 states for the whole package, so every run below also shows that
// the states honest senders broadcast need no re-hulling.
func TestMain(m *testing.M) {
	checkReceivedExtreme = true
	os.Exit(m.Run())
}

type nopCtx struct{}

func (nopCtx) ID() dist.ProcID                    { return 0 }
func (nopCtx) N() int                             { return 0 }
func (nopCtx) Send(dist.ProcID, string, int, any) {}
func (nopCtx) Broadcast(string, int, any)         {}

// roundOneProcess returns process 0 of n = d+3, f = 1 in round 1, started
// from the synthetic state h0 so that round 0 is skipped.
func roundOneProcess(t *testing.T, d int, h0 []geom.Point) *Process {
	t.Helper()
	p, err := NewProcess(Params{N: d + 3, F: 1, D: d, Epsilon: 0.1, InputUpper: 10}, 0, geom.Zero(d))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.setSyntheticH0(h0); err != nil {
		t.Fatal(err)
	}
	p.Init(nopCtx{})
	return p
}

func deliverState(p *Process, from dist.ProcID, round int, verts []geom.Point) {
	p.Deliver(nopCtx{}, dist.Message{From: from, To: 0, Kind: KindState, Round: round,
		Payload: wire.PolytopePayload{Verts: verts}})
}

// TestMalformedStateFailsProcess: a received state that is not a canonical
// vertex list is wrapped, not re-hulled, so the process fails and names the
// sender.
func TestMalformedStateFailsProcess(t *testing.T) {
	square := []geom.Point{pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)}
	clockwise := []geom.Point{pt(0, 0), pt(0, 1), pt(1, 1), pt(1, 0)}
	tetra := []geom.Point{pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1)}
	withInterior := append([]geom.Point{pt(0.1, 0.1, 0.1)}, tetra...)
	for _, tc := range []struct {
		name      string
		d         int
		good, bad []geom.Point
	}{
		{"clockwise 2-D", 2, square, clockwise},
		{"non-finite 2-D", 2, square, []geom.Point{pt(0, 0), pt(1, 0), pt(0, math.NaN())}},
		{"interior vertex 3-D", 3, tetra, withInterior},
	} {
		// n - f = d+2 states close round 1: the own one, d good, one bad.
		p := roundOneProcess(t, tc.d, tc.good)
		bad := dist.ProcID(tc.d + 1)
		for from := dist.ProcID(1); from < bad; from++ {
			deliverState(p, from, 1, tc.good)
		}
		if p.failure != nil || p.round != 1 {
			t.Fatalf("%s: round %d, failure %v before the bad state", tc.name, p.round, p.failure)
		}
		deliverState(p, bad, 1, tc.bad)
		want := fmt.Sprintf("round 1: state from %d:", bad)
		if p.failure == nil || !strings.Contains(p.failure.Error(), want) {
			t.Errorf("%s: failure = %v, want %q", tc.name, p.failure, want)
		}
	}
}

// TestLateStatesNotRetained: states that arrive after their round closed, or
// after the decision, are dropped instead of re-creating a pending entry.
func TestLateStatesNotRetained(t *testing.T) {
	params := Params{N: 9, F: 2, D: 2, Epsilon: 0.5, InputUpper: 10}
	rng := rand.New(rand.NewSource(5))
	inputs := make([]geom.Point, params.N)
	for i := range inputs {
		inputs[i] = pt(rng.Float64()*10, rng.Float64()*10)
	}
	cfg := RunConfig{
		Params: params,
		Inputs: inputs,
		Faulty: []dist.ProcID{7, 8},
		// Late crashes: each faulty process gets well into the averaging
		// rounds before it stops.
		Crashes: []dist.CrashPlan{{Proc: 7, AfterSends: 200}, {Proc: 8, AfterSends: 300}},
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(engine.Spec{N: params.N, Instances: []engine.InstanceSpec{cfg.Spec()}},
		engine.Options{Seed: 11, Scheduler: dist.NewRandomScheduler(), Crashes: cfg.Crashes})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Crashed) != 2 {
		t.Fatalf("crashed = %v, want both faulty processes", res.Crashed)
	}
	decided := 0
	for i := 0; i < params.N; i++ {
		proc := res.Sub(0, dist.ProcID(i)).(*Process)
		if !proc.decided {
			continue
		}
		decided++
		if len(proc.pending) != 0 {
			t.Errorf("process %d decided with %d pending rounds", i, len(proc.pending))
		}
	}
	if decided < params.N-params.F {
		t.Fatalf("%d processes decided, want at least %d", decided, params.N-params.F)
	}
}

// combineGroups returns the cumulative count of observations of
// chc_polytope_combine_groups and, per bucket bound, the cumulative count
// at or below it.
func combineGroups(t *testing.T) (count uint64, atMost map[float64]uint64) {
	t.Helper()
	mf := telemetry.Default().Snapshot().Find("chc_polytope_combine_groups")
	if mf == nil || len(mf.Samples) != 1 || mf.Samples[0].Histogram == nil {
		t.Fatal("chc_polytope_combine_groups is not registered")
	}
	h := mf.Samples[0].Histogram
	atMost = make(map[float64]uint64, len(h.Buckets))
	for _, b := range h.Buckets {
		atMost[b.UpperBound] = b.CumulativeCount
	}
	return h.Count, atMost
}

// TestCombineGroupsPerRound: each averaging round makes one call of L per
// process. In round 1 its operands are the round-0 states, of which
// Containment leaves at most f+1 distinct. Once all round-t states agree
// bitwise, every later call sees a single operand; the benign instance here
// gets there by round 1. (Not every seed does: when round-0 views differ,
// the processes average different subsets and distinct states can persist.)
func TestCombineGroupsPerRound(t *testing.T) {
	reg := telemetry.Default()
	defer reg.SetEnabled(reg.SetEnabled(true))

	rng := rand.New(rand.NewSource(2))
	in2 := make([]geom.Point, 5)
	for i := range in2 {
		in2[i] = pt(rng.Float64()*10, rng.Float64()*10)
	}
	rng = rand.New(rand.NewSource(3))
	in3 := make([]geom.Point, 6)
	for i := range in3 {
		in3[i] = pt(rng.Float64()*10, rng.Float64()*10, rng.Float64()*10)
	}
	for _, tc := range []struct {
		name   string
		cfg    RunConfig
		benign bool
	}{
		{"benign n=5 d=2", RunConfig{
			Params: Params{N: 5, F: 1, D: 2, Epsilon: 0.1, InputUpper: 10},
			Inputs: in2, Seed: 2,
		}, true},
		// The geom-cold benchmark shape: one crash inside the first broadcast.
		{"geom-cold n=6 d=3", RunConfig{
			Params:  Params{N: 6, F: 1, D: 3, Epsilon: 2, InputUpper: 10},
			Inputs:  in3,
			Faulty:  []dist.ProcID{5},
			Crashes: []dist.CrashPlan{{Proc: 5, AfterSends: 3}},
			Seed:    3,
		}, false},
	} {
		c0, le0 := combineGroups(t)
		res := runConsensus(t, tc.cfg)
		c1, le1 := combineGroups(t)
		calls, tEnd, f := c1-c0, uint64(res.Params.TEnd()), float64(res.Params.F)
		if want := uint64(len(res.Outputs)) * tEnd; calls != want {
			t.Errorf("%s: %d calls of L, want one per decided process and round (%d)", tc.name, calls, want)
		}
		if n := le1[f+1] - le0[f+1]; n != calls {
			t.Errorf("%s: %d of %d calls saw more than f+1 = %v operands", tc.name, calls-n, calls, f+1)
		}
		if !tc.benign {
			continue
		}
		// At most the n round-1 calls may see more than one operand.
		if ones := le1[1] - le0[1]; ones+uint64(res.Params.N) < calls {
			t.Errorf("%s: only %d of %d calls saw one operand", tc.name, ones, calls)
		}
	}
}

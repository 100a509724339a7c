package core

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"chc/internal/dist"
	"chc/internal/engine"
	"chc/internal/geom"
	"chc/internal/polytope"
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

// TestBenignRoundAllocs: one steady benign round of a 16-process CC
// process — n - f - 1 received states bitwise equal to its own, then
// advance — reuses the held polytope for every received state, the round's
// slots and the polytope scratch; L of one repeated operand builds no
// operand or weight lists; so the round allocates only the round record's
// sender list and the broadcast's boxed payload.
func TestBenignRoundAllocs(t *testing.T) {
	const n, f = 16, 2
	p, err := NewProcess(Params{N: n, F: f, D: 2, Epsilon: 0.01, InputUpper: 10}, 0, geom.Zero(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.setSyntheticH0([]geom.Point{pt(1, 1), pt(4, 1), pt(2, 3)}); err != nil {
		t.Fatal(err)
	}
	p.Init(nopCtx{})
	msgs := make([]dist.Message, n-f-1)
	for i := range msgs {
		verts := make([]geom.Point, 0, p.state.NumVertices())
		for _, v := range p.state.SharedVertices() {
			verts = append(verts, v.Clone())
		}
		msgs[i] = dist.Message{From: dist.ProcID(i + 1), Kind: KindState, Payload: wire.PolytopePayload{Verts: verts}}
	}
	round := func() {
		t0 := p.round
		for _, m := range msgs {
			m.Round = t0
			p.Deliver(nopCtx{}, m)
		}
		if p.round != t0+1 || p.failure != nil {
			t.Fatalf("round %d did not close: now round %d, failure %v", t0, p.round, p.failure)
		}
	}
	if allocs := testing.AllocsPerRun(50, round); allocs > 2 {
		t.Errorf("a benign round allocates %v objects, want at most 2", allocs)
	}
	if p.tEnd <= 51 {
		t.Fatalf("t_end = %d leaves no room for the measured rounds", p.tEnd)
	}
}

// TestReceivedStatesReused: a received list bitwise equal to one already
// held this round is that polytope, a different list is a polytope of its
// own, and the round's state is L of exactly the states received.
func TestReceivedStatesReused(t *testing.T) {
	own := []geom.Point{pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)}
	b := []geom.Point{pt(1, 1), pt(5, 1), pt(3, 6)}
	bCopy := []geom.Point{pt(1, 1), pt(5, 1), pt(3, 6)}
	c := []geom.Point{pt(2, 0), pt(6, 2), pt(2, 3)}
	p := roundOneProcess(t, 2, own) // n = 5, f = 1: the own state and three more close round 1
	for i, verts := range [][]geom.Point{b, bCopy, c} {
		deliverState(p, dist.ProcID(i+1), 1, verts)
	}
	if p.round != 2 || p.failure != nil {
		t.Fatalf("round 1 did not close: round %d, failure %v", p.round, p.failure)
	}
	if y := p.polys; y[2] != y[1] || y[3] == y[1] || y[3] == y[0] || y[1] == y[0] {
		t.Errorf("Y_i[1] shares polytopes wrongly: %p %p %p %p", y[0], y[1], y[2], y[3])
	}
	var ys []*polytope.Polytope
	for _, verts := range [][]geom.Point{own, b, b, c} {
		q, err := polytope.New(verts, geom.DefaultEps)
		if err != nil {
			t.Fatal(err)
		}
		ys = append(ys, q)
	}
	want, err := polytope.Average(ys, geom.DefaultEps)
	if err != nil {
		t.Fatal(err)
	}
	if !geom.SameBitsList(p.state.SharedVertices(), want.SharedVertices()) {
		t.Errorf("h[1] = %v, want L(Y_i[1]) = %v", p.state, want)
	}
}

// TestReceivedMemo: a sender's list that is the one it sent last round —
// the same backing array and length — is the polytope it resolved to then,
// without a compare; a new list with other bits is a polytope of its own,
// and a bitwise-equal list in another backing array still resolves through
// the compare, to the polytope already held this round.
func TestReceivedMemo(t *testing.T) {
	own := []geom.Point{pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)}
	a := []geom.Point{pt(1, 1), pt(5, 1), pt(3, 6)}
	aCopy := []geom.Point{pt(1, 1), pt(5, 1), pt(3, 6)}
	b := []geom.Point{pt(1, 1), pt(5, 1), pt(3, 7)}
	c := []geom.Point{pt(2, 0), pt(6, 2), pt(2, 3)}
	p := roundOneProcess(t, 2, own) // n = 5, f = 1: the own state and three more close a round
	for i, verts := range [][]geom.Point{a, a, c} {
		deliverState(p, dist.ProcID(i+1), 1, verts)
	}
	if p.round != 2 || p.failure != nil {
		t.Fatalf("round 1 did not close: round %d, failure %v", p.round, p.failure)
	}
	y1 := slices.Clone(p.polys)
	h1 := p.state
	for i, verts := range [][]geom.Point{a, b, aCopy} {
		deliverState(p, dist.ProcID(i+1), 2, verts)
	}
	if p.round != 3 || p.failure != nil {
		t.Fatalf("round 2 did not close: round %d, failure %v", p.round, p.failure)
	}
	y2 := p.polys
	if y2[1] != y1[1] {
		t.Errorf("sender 1 sent its round-1 list again and it resolved to %p, not %p", y2[1], y1[1])
	}
	if y2[2] == y1[2] || !geom.SameBitsList(y2[2].SharedVertices(), b) {
		t.Errorf("sender 2's new list resolved to %v, want a polytope of its own with vertices %v", y2[2], b)
	}
	if y2[3] != y2[1] {
		t.Errorf("a bitwise copy of a held list resolved to %p, not the held %p", y2[3], y2[1])
	}
	if !geom.SameList(p.seen[3].verts, aCopy) {
		t.Error("the copy did not replace sender 3's remembered list")
	}
	var ys []*polytope.Polytope
	for _, verts := range [][]geom.Point{h1.SharedVertices(), a, b, a} {
		q, err := polytope.New(verts, geom.DefaultEps)
		if err != nil {
			t.Fatal(err)
		}
		ys = append(ys, q)
	}
	want, err := polytope.Average(ys, geom.DefaultEps)
	if err != nil {
		t.Fatal(err)
	}
	if !geom.SameBitsList(p.state.SharedVertices(), want.SharedVertices()) {
		t.Errorf("h[2] = %v, want L(Y_i[2]) = %v", p.state, want)
	}
}

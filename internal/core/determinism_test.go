package core

import (
	"math"
	"math/rand"
	gort "runtime"
	"testing"

	"chc/internal/dist"
	"chc/internal/geom"
	"chc/internal/geom/par"
)

// sequentialRef runs fn with the worker pool forced onto one goroutine — the
// reference every parallel run must reproduce bit for bit.
func sequentialRef(t *testing.T, fn func()) {
	t.Helper()
	defer par.SetMaxWorkers(par.SetMaxWorkers(1))
	fn()
}

func pointsBitsEqual(a, b []geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

func randInputs(n, d int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		p := geom.Zero(d)
		for j := range p {
			p[j] = rng.Float64() * 4
		}
		pts[i] = p
	}
	return pts
}

// TestInitialPolytopeParallelMatchesSequential checks the subset-hull
// fan-out across an (n, f, d) grid: the parallel execution must
// be bitwise-identical to the sequential single-worker reference. Under
// -race this also exercises the worker pool's synchronization on the
// hottest fan-out in the library.
func TestInitialPolytopeParallelMatchesSequential(t *testing.T) {
	grid := []struct {
		n, f, d int
	}{
		{4, 1, 1},
		{5, 1, 2},
		{9, 2, 2},  // n >= (d+2)f+1 = 9
		{6, 1, 3},  // n >= 5f+1 = 6
		{11, 2, 3}, // n >= 5f+1 = 11: C(11,2) = 55 subset hulls, the hot fan-out
	}
	for _, g := range grid {
		seeds := int64(3)
		if g.n >= 11 {
			seeds = 1 // the 55-subset case is expensive; one seed suffices
		}
		for seed := int64(1); seed <= seeds; seed++ {
			p := Params{N: g.n, F: g.f, D: g.d, Epsilon: 0.1, InputUpper: 4}
			inputs := randInputs(g.n, g.d, seed*100+int64(g.n))

			var ref []geom.Point
			sequentialRef(t, func() {
				h, err := InitialPolytope(p, inputs)
				if err != nil {
					t.Fatalf("n=%d f=%d d=%d seed=%d: sequential: %v", g.n, g.f, g.d, seed, err)
				}
				ref = h.Vertices()
			})

			h, err := InitialPolytope(p, inputs)
			if err != nil {
				t.Fatalf("n=%d f=%d d=%d seed=%d: parallel: %v", g.n, g.f, g.d, seed, err)
			}
			if got := h.Vertices(); !pointsBitsEqual(ref, got) {
				t.Errorf("n=%d f=%d d=%d seed=%d: parallel InitialPolytope diverges from sequential",
					g.n, g.f, g.d, seed)
			}
		}
	}
}

// TestRunGOMAXPROCS1Equivalence guards the WAL-replay byte-identity
// contract: a full consensus run must produce bitwise-identical outputs
// whether the geometry engine has one processor or many, because replayed
// traces are re-executed under whatever GOMAXPROCS the recovering host has.
func TestRunGOMAXPROCS1Equivalence(t *testing.T) {
	cfg := RunConfig{
		Params: Params{N: 5, F: 1, D: 2, Epsilon: 0.1, InputUpper: 10},
		Inputs: randInputs(5, 2, 42),
		Faulty: []dist.ProcID{4},
		Crashes: []dist.CrashPlan{
			{Proc: 4, AfterSends: 6},
		},
		Seed: 7,
	}

	run := func() map[dist.ProcID][]geom.Point {
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		out := make(map[dist.ProcID][]geom.Point, len(res.Outputs))
		for id, p := range res.Outputs {
			out[id] = p.Vertices()
		}
		return out
	}

	ref := run()

	prevProcs := gort.GOMAXPROCS(1)
	single := run()
	gort.GOMAXPROCS(prevProcs)

	if len(ref) != len(single) {
		t.Fatalf("output sets differ: %d vs %d processes", len(ref), len(single))
	}
	for id, verts := range ref {
		got, ok := single[id]
		if !ok {
			t.Fatalf("process %d decided in multi-proc run but not under GOMAXPROCS=1", id)
		}
		if !pointsBitsEqual(verts, got) {
			t.Errorf("process %d: output under GOMAXPROCS=1 diverges bitwise", id)
		}
	}
}

// Under the race detector sync.Pool drops a random share of what is put
// back, so the pooled scratch these tests count on is re-made at random and
// their counts mean nothing there.

//go:build !race

package core

import (
	"math/rand"
	"testing"

	"chc/internal/dist"
	"chc/internal/geom"
)

// uniformViews returns count views of size inputs, uniform in [0,10)^d from
// seed.
func uniformViews(seed int64, count, inputs, d int) [][]geom.Point {
	rng := rand.New(rand.NewSource(seed))
	views := make([][]geom.Point, count)
	for i := range views {
		views[i] = make([]geom.Point, inputs)
		for k := range views[i] {
			x := make(geom.Point, d)
			for j := range x {
				x[j] = rng.Float64() * 10
			}
			views[i][k] = x
		}
	}
	return views
}

// TestInitialPolytopeAllocs pins round 0's allocations per call at the
// shapes of geom-cold, (6,1,3) on both view sizes, and of scale-n16,
// (16,2,2) at |X| = 14. The depth halfspaces, the clipper and the affine
// dimension live in pooled or stack scratch, so in 3-D a call allocates the
// returned vertex list (one coordinate slab, its point headers) and the
// polytope; the 2-D result also goes through MonotoneChain.
func TestInitialPolytopeAllocs(t *testing.T) {
	for _, tc := range []struct {
		n, f, d, inputs int
		max             float64
	}{
		{6, 1, 3, 5, 5},
		{6, 1, 3, 6, 5},
		{16, 2, 2, 14, 22},
	} {
		views := uniformViews(7, 16, tc.inputs, tc.d)
		params := baseParams(tc.n, tc.f, tc.d)
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := InitialPolytope(params, views[i%len(views)]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs > tc.max {
			t.Errorf("(%d,%d,%d) |X| = %d: InitialPolytope allocates %v objects a call, want at most %v",
				tc.n, tc.f, tc.d, tc.inputs, allocs, tc.max)
		}
	}
}

// TestRunAllocsGeomCold pins the allocations of one run shaped like the
// geom-cold workload: n=6, f=1, d=3, ε=2, process 5 crashing after 3 sends,
// on the simulator. Round 0 allocates only its results, the simulator takes
// its generator and channel table from pools, and a process re-broadcasts
// an unchanged state in the same box.
func TestRunAllocsGeomCold(t *testing.T) {
	defer func(prev bool) { checkReceivedExtreme = prev }(checkReceivedExtreme)
	checkReceivedExtreme = false // the test hook re-hulls every received state
	inputs := uniformViews(11, 1, 6, 3)[0]
	cfg := RunConfig{
		Params:  Params{N: 6, F: 1, D: 3, Epsilon: 2, InputLower: 0, InputUpper: 10},
		Inputs:  inputs,
		Faulty:  []dist.ProcID{5},
		Crashes: []dist.CrashPlan{{Proc: 5, AfterSends: 3}},
		Seed:    3,
	}
	run := func() {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(20, run); allocs > 480 {
		t.Errorf("a geom-cold-shaped run allocates %v objects, want at most 480", allocs)
	}
}

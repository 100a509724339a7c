package core

import (
	"math/rand"
	gort "runtime"
	"testing"

	"chc/internal/dist"
	"chc/internal/geom"
)

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

// TestRunGOMAXPROCS1Equivalence guards the WAL-replay byte-identity
// contract: a full consensus run must produce bitwise-identical outputs
// with one processor or many, because replayed traces are re-executed under
// whatever GOMAXPROCS the recovering host has. The d = 3 row pins the N-D
// geometry (the halfspace clipping of round 0).
func TestRunGOMAXPROCS1Equivalence(t *testing.T) {
	for _, tc := range []struct {
		n, d, afterSends int
	}{
		{5, 2, 6},
		{6, 3, 3},
	} {
		faulty := dist.ProcID(tc.n - 1)
		cfg := RunConfig{
			Params:  Params{N: tc.n, F: 1, D: tc.d, Epsilon: 0.1, InputUpper: 10},
			Inputs:  randInputs(tc.n, tc.d, 42),
			Faulty:  []dist.ProcID{faulty},
			Crashes: []dist.CrashPlan{{Proc: faulty, AfterSends: tc.afterSends}},
			Seed:    7,
		}

		run := func() map[dist.ProcID][]geom.Point {
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("n=%d d=%d: Run: %v", tc.n, tc.d, err)
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
			t.Fatalf("n=%d d=%d: output sets differ: %d vs %d processes", tc.n, tc.d, len(ref), len(single))
		}
		for id, verts := range ref {
			got, ok := single[id]
			if !ok {
				t.Fatalf("n=%d d=%d: process %d decided in multi-proc run but not under GOMAXPROCS=1", tc.n, tc.d, id)
			}
			if !geom.SameBitsList(verts, got) {
				t.Errorf("n=%d d=%d: process %d: output under GOMAXPROCS=1 diverges bitwise", tc.n, tc.d, id)
			}
		}
	}
}

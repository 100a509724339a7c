package core

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"chc/internal/dist"
	"chc/internal/geom"
)

// executionFold is an FNV-64a over everything a CC run makes observable:
// every decision, every decided process's trace (R0Entries, H0, and each
// round's senders, state bits and ApproxErr) and the run's Stats (Sends,
// Bytes, Deliveries, DroppedCrash, KindCounts), processes in id order.
type executionFold struct{ h hash.Hash64 }

func (f executionFold) ints(vs ...int) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		f.h.Write(b[:])
	}
}

func (f executionFold) floats(vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		f.h.Write(b[:])
	}
}

func (f executionFold) points(ps []geom.Point) {
	f.ints(len(ps))
	for _, p := range ps {
		f.ints(len(p))
		f.floats(p...)
	}
}

func foldRun(res *RunResult) uint64 {
	f := executionFold{fnv.New64a()}
	for id := range dist.ProcID(res.Params.N) {
		if out, ok := res.Outputs[id]; ok {
			f.ints(int(id))
			f.points(out.SharedVertices())
		}
	}
	for id := range dist.ProcID(res.Params.N) {
		tr, ok := res.Traces[id]
		if !ok {
			continue
		}
		f.ints(int(id), len(tr.R0Entries))
		for _, e := range tr.R0Entries {
			f.ints(int(e.Proc))
			f.points([]geom.Point{e.Value})
		}
		f.points(tr.H0)
		f.ints(len(tr.Rounds))
		for _, r := range tr.Rounds {
			f.ints(r.Round, len(r.Senders))
			for _, s := range r.Senders {
				f.ints(int(s))
			}
			f.points(r.State)
			f.floats(r.ApproxErr)
		}
	}
	st := res.Stats
	f.ints(st.Sends, st.Bytes, st.Deliveries, st.DroppedCrash)
	kinds := make([]string, 0, len(st.KindCounts))
	for k := range st.KindCounts {
		kinds = append(kinds, k)
	}
	slices.Sort(kinds)
	for _, k := range kinds {
		f.h.Write([]byte(k))
		f.ints(st.KindCounts[k])
	}
	return f.h.Sum64()
}

// foldCases are the determinism grid's shapes at seed 1, each without a
// crash and with process n-1 cut in the middle of a broadcast of the
// averaging rounds, plus one instance of the scale-n16 shape and one of the
// geom-cold shape (its crash lands inside the first broadcast).
func foldCases() map[string]RunConfig {
	cases := make(map[string]RunConfig)
	for _, g := range []struct{ n, f, d int }{{4, 1, 1}, {5, 1, 2}, {9, 2, 2}, {6, 1, 3}, {11, 2, 3}} {
		const seed = 1
		cfg := RunConfig{
			Params: Params{N: g.n, F: g.f, D: g.d, Epsilon: 0.1, InputUpper: 10},
			Inputs: randInputs(g.n, g.d, seed*100+int64(g.n)),
			Seed:   seed,
		}
		cases[fmt.Sprintf("grid/n%d-f%d-d%d/none", g.n, g.f, g.d)] = cfg
		faulty := dist.ProcID(g.n - 1)
		cfg.Faulty = []dist.ProcID{faulty}
		cfg.Crashes = []dist.CrashPlan{{Proc: faulty, AfterSends: (g.n+2)*(g.n-1) + (g.n-1)/2}}
		cases[fmt.Sprintf("grid/n%d-f%d-d%d/mid", g.n, g.f, g.d)] = cfg
	}
	cases["scale-n16"] = RunConfig{
		Params: Params{N: 16, F: 2, D: 2, Epsilon: 0.5, InputUpper: 10},
		Inputs: randInputs(16, 2, 16),
		Seed:   16,
	}
	cases["geom-cold"] = RunConfig{
		Params:  Params{N: 6, F: 1, D: 3, Epsilon: 2, InputUpper: 10},
		Inputs:  randInputs(6, 3, 6),
		Faulty:  []dist.ProcID{5},
		Crashes: []dist.CrashPlan{{Proc: 5, AfterSends: 3}},
		Seed:    6,
	}
	return cases
}

// executionFolds are foldRun's values, pinned at commit 0cba985. The d = 3
// values were re-pinned when round 0 in d >= 3 moved from a linear program to
// halfspace clipping; every decision moved by at most 1.1e-14 Hausdorff. The
// d = 2 values were re-pinned when round 0 and Intersect in 2-D moved to the
// same clipping; every decision moved by at most 3.6e-15.
var executionFolds = map[string]uint64{
	"scale-n16":           0x03307524f7da1633,
	"geom-cold":           0x01263b61634cad51,
	"grid/n4-f1-d1/none":  0x218046450de41d2a,
	"grid/n4-f1-d1/mid":   0x138d914ebaa6fe96,
	"grid/n5-f1-d2/none":  0x2097e475946922d3,
	"grid/n5-f1-d2/mid":   0x8afbe71eceb6bc04,
	"grid/n9-f2-d2/none":  0x7b8d9a3087117583,
	"grid/n9-f2-d2/mid":   0x8c74c14c43539614,
	"grid/n6-f1-d3/none":  0xf225205b65522c9d,
	"grid/n6-f1-d3/mid":   0xf6746023d241306c,
	"grid/n11-f2-d3/none": 0x80a380b1895f1b91,
	"grid/n11-f2-d3/mid":  0x77ae422d66936ebf,
}

// TestExecutionFolds pins whole CC executions bit for bit. A change that
// claims to leave executions unchanged leaves these values unedited.
func TestExecutionFolds(t *testing.T) {
	for name, cfg := range foldCases() {
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := foldRun(res), executionFolds[name]; got != want {
			t.Errorf("%q: %#016x, // want %#016x", name, got, want)
		}
	}
}

package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"chc/internal/core"
	"chc/internal/dist"
	"chc/internal/geom"
	"chc/internal/polytope"
	"chc/internal/vectorconsensus"
)

func pt(coords ...float64) geom.Point { return geom.NewPoint(coords...) }

func config(seed int64, faulty []dist.ProcID, crashes []dist.CrashPlan) core.RunConfig {
	rng := rand.New(rand.NewSource(seed))
	inputs := make([]geom.Point, 5)
	for i := range inputs {
		inputs[i] = pt(rng.Float64()*10, rng.Float64()*10)
	}
	return core.RunConfig{
		Params: core.Params{
			N: 5, F: 1, D: 2,
			Epsilon:    0.2,
			InputLower: 0, InputUpper: 10,
		},
		Inputs:  inputs,
		Faulty:  faulty,
		Crashes: crashes,
		Seed:    seed,
	}
}

func run(t *testing.T, seed int64, faulty []dist.ProcID, crashes []dist.CrashPlan) *core.RunResult {
	t.Helper()
	result, err := core.Run(config(seed, faulty, crashes))
	if err != nil {
		t.Fatal(err)
	}
	return result
}

func TestBuildAndRowStochastic(t *testing.T) {
	result := run(t, 1, nil, nil)
	a, err := Build(result)
	if err != nil {
		t.Fatal(err)
	}
	if a.TEnd == 0 || len(a.M) != a.TEnd || len(a.P) != a.TEnd {
		t.Fatalf("analysis shape: tEnd=%d |M|=%d |P|=%d", a.TEnd, len(a.M), len(a.P))
	}
	if err := a.CheckRowStochastic(1e-9); err != nil {
		t.Error(err)
	}
}

func TestLemma3Holds(t *testing.T) {
	result := run(t, 2, []dist.ProcID{3}, []dist.CrashPlan{{Proc: 3, AfterSends: 11}})
	a, err := Build(result)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.CheckLemma3(1e-9); err != nil {
		t.Error(err)
	}
	// Delta must be monotonically bounded and shrink to below epsilon scale.
	dFirst, err := a.Delta(1)
	if err != nil {
		t.Fatal(err)
	}
	dLast, err := a.Delta(a.TEnd)
	if err != nil {
		t.Fatal(err)
	}
	if dLast > dFirst+1e-12 {
		t.Errorf("delta grew: %v -> %v", dFirst, dLast)
	}
	if dLast > a.Lemma3Bound(a.TEnd) {
		t.Errorf("final delta %v above bound %v", dLast, a.Lemma3Bound(a.TEnd))
	}
}

// TestTheorem1MatrixFormMatchesOperational runs one execution as Algorithm CC
// and as vector consensus. A vector run is CC from h_i[0] = {SafePoint(R_i)},
// so by Theorem 1 each of its states, the decision at t_end included, is the
// point Σ_j P_ij[t]·SafePoint(R_j): the Section 1 argument as a check.
func TestTheorem1MatrixFormMatchesOperational(t *testing.T) {
	cc := run(t, 3, []dist.ProcID{2}, []dist.CrashPlan{{Proc: 2, AfterSends: 15}})
	vc, err := vectorconsensus.Run(config(3, []dist.ProcID{2}, []dist.CrashPlan{{Proc: 2, AfterSends: 15}}))
	if err != nil {
		t.Fatal(err)
	}
	every := make([]int, vc.Params.TEnd())
	for k := range every {
		every[k] = k + 1
	}
	for _, tc := range []struct {
		name   string
		result *core.RunResult
		rounds []int
		tol    float64
	}{
		{"cc", cc, []int{1, 2, 3}, 1e-6},
		{"vector", vc.RunResult, every, 1e-9},
	} {
		a, err := Build(tc.result)
		if err != nil {
			t.Fatal(err)
		}
		if a.TEnd < len(tc.rounds) {
			tc.rounds = tc.rounds[:a.TEnd]
		}
		if err := a.VerifyTheorem1(tc.result, tc.rounds, tc.tol); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

func TestDeltaOutOfRange(t *testing.T) {
	result := run(t, 4, nil, nil)
	a, err := Build(result)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Delta(0); err == nil {
		t.Error("Delta(0) should error")
	}
	if _, err := a.Delta(a.TEnd + 1); err == nil {
		t.Error("Delta beyond tEnd should error")
	}
	if err := a.VerifyTheorem1(result, []int{0}, 1e-6); err == nil {
		t.Error("VerifyTheorem1 with bad round should error")
	}
}

func TestBuildNoRounds(t *testing.T) {
	// Epsilon so large that t_end = 0: no averaging rounds to analyse.
	cfg := core.RunConfig{
		Params: core.Params{
			N: 5, F: 1, D: 2,
			Epsilon:    1e9,
			InputLower: 0, InputUpper: 1,
		},
		Inputs: []geom.Point{pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1), pt(0.5, 0.5)},
		Seed:   5,
	}
	result, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(result); !errors.Is(err, ErrNoRounds) {
		t.Errorf("err = %v, want ErrNoRounds", err)
	}
}

func TestMatMul(t *testing.T) {
	a := geom.NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 3)
	a.Set(1, 1, 4)
	b := geom.NewMatrix(2, 2)
	b.Set(0, 0, 5)
	b.Set(0, 1, 6)
	b.Set(1, 0, 7)
	b.Set(1, 1, 8)
	c := matMul(a, b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Errorf("c[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

// The matrix-form state must also converge: the Hausdorff distance between
// matrix states of two fault-free processes shrinks like the delta bound.
func TestMatrixConvergenceMirrorsOperational(t *testing.T) {
	result := run(t, 6, nil, nil)
	a, err := Build(result)
	if err != nil {
		t.Fatal(err)
	}
	// Operational convergence: final states of all processes within eps.
	var outs []*polytope.Polytope
	for _, id := range result.FaultFree() {
		outs = append(outs, result.Outputs[id])
	}
	dOp, err := polytope.MaxPairwiseHausdorff(outs, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if dOp > result.Params.Epsilon {
		t.Fatalf("operational agreement %v > epsilon", dOp)
	}
	dFinal, err := a.Delta(a.TEnd)
	if err != nil {
		t.Fatal(err)
	}
	if dFinal > a.Lemma3Bound(a.TEnd) {
		t.Errorf("matrix delta %v above Lemma 3 bound %v", dFinal, a.Lemma3Bound(a.TEnd))
	}
}

// TestSharedVertexListsUnchanged: the vertex lists of a trace are the
// states' own lists, shared with every process's output polytope and with
// the states it broadcast, not copies. So running the consumers of a trace
// over them — Build and the Theorem 1 check, the JSON export and its
// re-import, polytope.New on each recorded state — must leave every one of
// them, each Output() among them, bitwise as it was.
func TestSharedVertexListsUnchanged(t *testing.T) {
	results := []*core.RunResult{run(t, 4, []dist.ProcID{1}, []dist.CrashPlan{{Proc: 1, AfterSends: 9}})}
	rng := rand.New(rand.NewSource(6))
	in3 := make([]geom.Point, 6)
	for i := range in3 {
		in3[i] = pt(rng.Float64()*10, rng.Float64()*10, rng.Float64()*10)
	}
	r3, err := core.Run(core.RunConfig{
		Params: core.Params{N: 6, F: 1, D: 3, Epsilon: 2, InputUpper: 10},
		Inputs: in3, Faulty: []dist.ProcID{5}, Crashes: []dist.CrashPlan{{Proc: 5, AfterSends: 3}}, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	results = append(results, r3)

	for _, result := range results {
		// Every shared list, and a deep copy of it taken before the consumers run.
		var shared, copies [][]geom.Point
		keep := func(verts []geom.Point) {
			cp := make([]geom.Point, len(verts))
			for i, v := range verts {
				cp[i] = v.Clone()
			}
			shared, copies = append(shared, verts), append(copies, cp)
		}
		for id, out := range result.Outputs {
			keep(out.SharedVertices())
			tr := result.Traces[id]
			keep(tr.H0)
			for _, rec := range tr.Rounds {
				keep(rec.State)
			}
		}

		a, err := Build(result)
		if err != nil {
			t.Fatal(err)
		}
		every := make([]int, a.TEnd)
		for k := range every {
			every[k] = k + 1
		}
		if err := a.VerifyTheorem1(result, every, 1e-6); err != nil {
			t.Error(err)
		}
		var buf bytes.Buffer
		if err := core.WriteTraceJSON(&buf, result); err != nil {
			t.Fatal(err)
		}
		if _, err := core.ReadTraceJSON(&buf); err != nil {
			t.Fatal(err)
		}
		for _, tr := range result.Traces {
			for _, rec := range tr.Rounds {
				if _, err := polytope.New(rec.State, geom.DefaultEps); err != nil {
					t.Fatal(err)
				}
			}
		}

		for i := range shared {
			if !geom.SameBitsList(shared[i], copies[i]) {
				t.Fatalf("d=%d: shared vertex list %d changed under the trace consumers", result.Params.D, i)
			}
		}
		// The check has teeth: an output is the very list of its last round.
		for id, out := range result.Outputs {
			rounds := result.Traces[id].Rounds
			if last := rounds[len(rounds)-1].State; &last[0] != &out.SharedVertices()[0] {
				t.Fatalf("d=%d: process %d's last round record holds a copy of its output", result.Params.D, id)
			}
		}
	}
}

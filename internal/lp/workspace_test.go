package lp

import (
	"math"
	"math/rand"
	"testing"
)

const wsEps = 1e-9

// randomBoxProblem builds a bounded LP over a random box with random cuts,
// guaranteed feasible (the origin-centred box always is).
func randomBoxProblem(rng *rand.Rand, nVars, nCuts int) *Problem {
	cons := make([]Constraint, 0, 2*nVars+nCuts)
	for j := 0; j < nVars; j++ {
		up := make([]float64, nVars)
		up[j] = 1
		lo := make([]float64, nVars)
		lo[j] = -1
		cons = append(cons,
			Constraint{Coeffs: up, Op: LE, RHS: 1 + rng.Float64()},
			Constraint{Coeffs: lo, Op: LE, RHS: 1 + rng.Float64()},
		)
	}
	for c := 0; c < nCuts; c++ {
		row := make([]float64, nVars)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		cons = append(cons, Constraint{Coeffs: row, Op: LE, RHS: 1 + rng.Float64()})
	}
	obj := make([]float64, nVars)
	for j := range obj {
		obj[j] = rng.NormFloat64()
	}
	free := make([]bool, nVars)
	for j := range free {
		free[j] = true
	}
	return &Problem{NumVars: nVars, Objective: obj, Minimize: true, Constraints: cons, Free: free}
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestSolveWithMatchesSolveBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ws := NewWorkspace()
	for trial := 0; trial < 200; trial++ {
		p := randomBoxProblem(rng, 2+trial%4, trial%8)
		ref, err := p.Solve(wsEps)
		if err != nil {
			t.Fatalf("trial %d: Solve: %v", trial, err)
		}
		got, err := p.SolveWith(ws, wsEps)
		if err != nil {
			t.Fatalf("trial %d: SolveWith: %v", trial, err)
		}
		if ref.Status != got.Status {
			t.Fatalf("trial %d: status %v vs %v", trial, ref.Status, got.Status)
		}
		if ref.Status != Optimal {
			continue
		}
		if !bitsEqual(ref.X, got.X) || math.Float64bits(ref.Value) != math.Float64bits(got.Value) {
			t.Fatalf("trial %d: SolveWith diverges from Solve:\n  ref %v (%v)\n  got %v (%v)",
				trial, ref.X, ref.Value, got.X, got.Value)
		}
	}
}

func TestSolutionSurvivesWorkspaceReuse(t *testing.T) {
	// Solution.X must be freshly allocated: solving a second problem with
	// the same workspace must not clobber the first solution.
	rng := rand.New(rand.NewSource(11))
	ws := NewWorkspace()
	p1 := randomBoxProblem(rng, 3, 4)
	s1, err := p1.SolveWith(ws, wsEps)
	if err != nil || s1.Status != Optimal {
		t.Fatalf("first solve: %v %v", s1, err)
	}
	snapshot := append([]float64(nil), s1.X...)
	for i := 0; i < 50; i++ {
		p := randomBoxProblem(rng, 4, 8)
		if _, err := p.SolveWith(ws, wsEps); err != nil {
			t.Fatalf("reuse solve %d: %v", i, err)
		}
	}
	if !bitsEqual(s1.X, snapshot) {
		t.Fatalf("Solution.X changed under workspace reuse: %v -> %v", snapshot, s1.X)
	}
}

func TestHelpersWithMatchBaseBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ws := NewWorkspace()
	for trial := 0; trial < 50; trial++ {
		n := 2 + trial%3
		// Random bounded polyhedron: a box plus random cuts.
		var a [][]float64
		var b []float64
		for j := 0; j < n; j++ {
			up := make([]float64, n)
			up[j] = 1
			lo := make([]float64, n)
			lo[j] = -1
			a = append(a, up, lo)
			b = append(b, 1+rng.Float64(), 1+rng.Float64())
		}
		for c := 0; c < 4; c++ {
			row := make([]float64, n)
			for j := range row {
				row[j] = rng.NormFloat64()
			}
			a = append(a, row)
			b = append(b, 1+rng.Float64())
		}
		dir := make([]float64, n)
		for j := range dir {
			dir[j] = rng.NormFloat64()
		}

		x1, v1, err1 := MaximizeOverHalfspaces(dir, a, b, wsEps)
		x2, v2, err2 := MaximizeOverHalfspacesWith(ws, dir, a, b, wsEps)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d: maximize err %v vs %v", trial, err1, err2)
		}
		if err1 == nil && (!bitsEqual(x1, x2) || math.Float64bits(v1) != math.Float64bits(v2)) {
			t.Fatalf("trial %d: MaximizeOverHalfspacesWith diverges", trial)
		}

		x1, v1, err1 = MinimizeOverHalfspaces(dir, a, b, wsEps)
		x2, v2, err2 = MinimizeOverHalfspacesWith(ws, dir, a, b, wsEps)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d: minimize err %v vs %v", trial, err1, err2)
		}
		if err1 == nil && (!bitsEqual(x1, x2) || math.Float64bits(v1) != math.Float64bits(v2)) {
			t.Fatalf("trial %d: MinimizeOverHalfspacesWith diverges", trial)
		}

		c1, r1, err1 := ChebyshevCenter(a, b, wsEps)
		c2, r2, err2 := ChebyshevCenterWith(ws, a, b, wsEps)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d: chebyshev err %v vs %v", trial, err1, err2)
		}
		if err1 == nil && (!bitsEqual(c1, c2) || math.Float64bits(r1) != math.Float64bits(r2)) {
			t.Fatalf("trial %d: ChebyshevCenterWith diverges", trial)
		}

		// Membership test: centre of the box is inside the hull of the box
		// corners in 2-D; reuse the random dir as a query scaled inward.
		verts := [][]float64{{0, 0}, {1, 0}, {0, 1}, {1, 1}}
		q := []float64{0.25 + rng.Float64()/2, 0.25 + rng.Float64()/2}
		w1, err1 := ConvexWeights(verts, q, wsEps)
		w2, err2 := ConvexWeightsWith(ws, verts, q, wsEps)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d: weights err %v vs %v", trial, err1, err2)
		}
		if err1 == nil && !bitsEqual(w1, w2) {
			t.Fatalf("trial %d: ConvexWeightsWith diverges", trial)
		}
	}
}

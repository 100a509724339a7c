package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const testEps = 1e-9

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := p.Solve(testEps)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return sol
}

func TestMaximizeSimple(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0.
	// Classic Dantzig example: optimum at (2, 6) with value 36.
	p := &Problem{
		NumVars:   2,
		Objective: []float64{3, 5},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 0}, Op: LE, RHS: 4},
			{Coeffs: []float64{0, 2}, Op: LE, RHS: 12},
			{Coeffs: []float64{3, 2}, Op: LE, RHS: 18},
		},
	}
	sol := solveOK(t, p)
	if sol.Status != Optimal {
		t.Fatalf("Status = %v", sol.Status)
	}
	if math.Abs(sol.Value-36) > 1e-6 {
		t.Errorf("Value = %v, want 36", sol.Value)
	}
	if math.Abs(sol.X[0]-2) > 1e-6 || math.Abs(sol.X[1]-6) > 1e-6 {
		t.Errorf("X = %v, want (2,6)", sol.X)
	}
}

func TestMinimizeWithEquality(t *testing.T) {
	// min x + y s.t. x + 2y = 4, x,y >= 0 => (0,2), value 2.
	p := &Problem{
		NumVars:   2,
		Objective: []float64{1, 1},
		Minimize:  true,
		Constraints: []Constraint{
			{Coeffs: []float64{1, 2}, Op: EQ, RHS: 4},
		},
	}
	sol := solveOK(t, p)
	if sol.Status != Optimal || math.Abs(sol.Value-2) > 1e-6 {
		t.Fatalf("got %v value %v, want optimal 2", sol.Status, sol.Value)
	}
}

func TestGEConstraints(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3 => x=7,y=3, value 23.
	p := &Problem{
		NumVars:   2,
		Objective: []float64{2, 3},
		Minimize:  true,
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Op: GE, RHS: 10},
			{Coeffs: []float64{1, 0}, Op: GE, RHS: 2},
			{Coeffs: []float64{0, 1}, Op: GE, RHS: 3},
		},
	}
	sol := solveOK(t, p)
	if sol.Status != Optimal || math.Abs(sol.Value-23) > 1e-6 {
		t.Fatalf("got %v value %v, want optimal 23", sol.Status, sol.Value)
	}
}

func TestInfeasible(t *testing.T) {
	p := &Problem{
		NumVars:   1,
		Objective: []float64{1},
		Minimize:  true,
		Constraints: []Constraint{
			{Coeffs: []float64{1}, Op: GE, RHS: 5},
			{Coeffs: []float64{1}, Op: LE, RHS: 3},
		},
	}
	sol := solveOK(t, p)
	if sol.Status != Infeasible {
		t.Fatalf("Status = %v, want Infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := &Problem{
		NumVars:   1,
		Objective: []float64{1},
		Minimize:  false, // maximise x with x >= 0 only
		Constraints: []Constraint{
			{Coeffs: []float64{1}, Op: GE, RHS: 0},
		},
	}
	sol := solveOK(t, p)
	if sol.Status != Unbounded {
		t.Fatalf("Status = %v, want Unbounded", sol.Status)
	}
}

func TestFreeVariables(t *testing.T) {
	// min x s.t. x >= -5 with x free => -5.
	p := &Problem{
		NumVars:   1,
		Objective: []float64{1},
		Minimize:  true,
		Constraints: []Constraint{
			{Coeffs: []float64{1}, Op: GE, RHS: -5},
		},
		Free: []bool{true},
	}
	sol := solveOK(t, p)
	if sol.Status != Optimal || math.Abs(sol.Value+5) > 1e-6 {
		t.Fatalf("got %v value %v, want optimal -5", sol.Status, sol.Value)
	}
}

func TestNegativeRHS(t *testing.T) {
	// min y s.t. -x - y <= -4 (i.e. x + y >= 4), x <= 1, y free-ish >= 0.
	p := &Problem{
		NumVars:   2,
		Objective: []float64{0, 1},
		Minimize:  true,
		Constraints: []Constraint{
			{Coeffs: []float64{-1, -1}, Op: LE, RHS: -4},
			{Coeffs: []float64{1, 0}, Op: LE, RHS: 1},
		},
	}
	sol := solveOK(t, p)
	if sol.Status != Optimal || math.Abs(sol.Value-3) > 1e-6 {
		t.Fatalf("got %v value %v, want optimal 3", sol.Status, sol.Value)
	}
}

func TestDegenerateProblem(t *testing.T) {
	// Degenerate vertex (multiple constraints active); Bland's rule must
	// still terminate. max x + y s.t. x <= 1, y <= 1, x + y <= 2.
	p := &Problem{
		NumVars:   2,
		Objective: []float64{1, 1},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 0}, Op: LE, RHS: 1},
			{Coeffs: []float64{0, 1}, Op: LE, RHS: 1},
			{Coeffs: []float64{1, 1}, Op: LE, RHS: 2},
		},
	}
	sol := solveOK(t, p)
	if sol.Status != Optimal || math.Abs(sol.Value-2) > 1e-6 {
		t.Fatalf("got %v value %v, want optimal 2", sol.Status, sol.Value)
	}
}

func TestBadProblems(t *testing.T) {
	cases := []*Problem{
		{NumVars: 0, Objective: nil},
		{NumVars: 2, Objective: []float64{1}},
		{NumVars: 1, Objective: []float64{1}, Free: []bool{true, false}},
		{NumVars: 1, Objective: []float64{1}, Constraints: []Constraint{{Coeffs: []float64{1, 2}, Op: LE}}},
		{NumVars: 1, Objective: []float64{1}, Constraints: []Constraint{{Coeffs: []float64{1}, Op: Op(99)}}},
	}
	for i, p := range cases {
		if _, err := p.Solve(testEps); !errors.Is(err, ErrBadProblem) {
			t.Errorf("case %d: err = %v, want ErrBadProblem", i, err)
		}
	}
}

func TestChebyshevCenterSquare(t *testing.T) {
	// Unit square [0,1]^2: centre (0.5,0.5), radius 0.5.
	a := [][]float64{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}
	b := []float64{1, 0, 1, 0}
	c, r, err := ChebyshevCenter(a, b, testEps)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c[0]-0.5) > 1e-6 || math.Abs(c[1]-0.5) > 1e-6 || math.Abs(r-0.5) > 1e-6 {
		t.Errorf("centre %v radius %v", c, r)
	}
}

func TestChebyshevCenterInfeasible(t *testing.T) {
	a := [][]float64{{1}, {-1}}
	b := []float64{-1, -1} // x <= -1 and -x <= -1: empty
	if _, _, err := ChebyshevCenter(a, b, testEps); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestChebyshevCenterDegenerate(t *testing.T) {
	// The segment x in [0,2], y = 0 has radius 0 but is non-empty.
	a := [][]float64{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}
	b := []float64{2, 0, 0, 0}
	_, r, err := ChebyshevCenter(a, b, testEps)
	if err != nil {
		t.Fatal(err)
	}
	if r > 1e-6 {
		t.Errorf("radius = %v, want 0", r)
	}
}

func TestMinMaxOverHalfspaces(t *testing.T) {
	// Triangle (0,0),(4,0),(0,4): x >= 0, y >= 0, x + y <= 4.
	a := [][]float64{{-1, 0}, {0, -1}, {1, 1}}
	b := []float64{0, 0, 4}
	_, v, err := MaximizeOverHalfspaces([]float64{1, 0}, a, b, testEps)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-4) > 1e-6 {
		t.Errorf("max x = %v, want 4", v)
	}
	_, v, err = MinimizeOverHalfspaces([]float64{1, 1}, a, b, testEps)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v) > 1e-6 {
		t.Errorf("min x+y = %v, want 0", v)
	}
	// Unbounded direction.
	if _, _, err := MaximizeOverHalfspaces([]float64{1}, [][]float64{{-1}}, []float64{0}, testEps); !errors.Is(err, ErrUnbounded) {
		t.Errorf("err = %v, want ErrUnbounded", err)
	}
}

func TestConvexWeights(t *testing.T) {
	verts := [][]float64{{0, 0}, {2, 0}, {0, 2}}
	w, err := ConvexWeights(verts, []float64{0.5, 0.5}, testEps)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	rec := []float64{0, 0}
	for i, wi := range w {
		if wi < -1e-9 {
			t.Errorf("negative weight %v", wi)
		}
		sum += wi
		rec[0] += wi * verts[i][0]
		rec[1] += wi * verts[i][1]
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("weights sum to %v", sum)
	}
	if math.Abs(rec[0]-0.5) > 1e-6 || math.Abs(rec[1]-0.5) > 1e-6 {
		t.Errorf("reconstruction = %v", rec)
	}
	// Outside the hull.
	if _, err := ConvexWeights(verts, []float64{3, 3}, testEps); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

// TestSeparateWith: the membership verdict is ConvexWeightsWith's, and an
// "outside" comes with a direction that strictly separates q from every
// vertex — also when q has negative coordinates, whose rows the tableau
// negates and whose duals must get the sign back.
func TestSeparateWith(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	ws := NewWorkspace()
	dot := func(u, v []float64) float64 {
		var s float64
		for i := range u {
			s += u[i] * v[i]
		}
		return s
	}
	insides, outsides, negative := 0, 0, 0
	for trial := 0; trial < 400; trial++ {
		d := 2 + trial%4
		verts := make([][]float64, d+1+rng.Intn(8))
		for i := range verts {
			verts[i] = make([]float64, d)
			for c := range verts[i] {
				verts[i][c] = rng.Float64()*4 - 2
			}
		}
		q := make([]float64, d)
		for c := range q {
			q[c] = rng.Float64()*4 - 2
		}
		_, werr := ConvexWeightsWith(ws, verts, q, testEps)
		u, inside, err := SeparateWith(ws, verts, q, testEps)
		if err != nil {
			t.Fatal(err)
		}
		if inside != (werr == nil) {
			t.Fatalf("trial %d: inside = %v but ConvexWeightsWith err = %v", trial, inside, werr)
		}
		if inside {
			insides++
			if u != nil {
				t.Fatalf("trial %d: inside with direction %v", trial, u)
			}
			continue
		}
		outsides++
		if len(u) != d {
			t.Fatalf("trial %d: direction %v has %d coordinates, want %d", trial, u, len(u), d)
		}
		for _, c := range q {
			if c < 0 {
				negative++
				break
			}
		}
		for i, v := range verts {
			if dot(u, v) >= dot(u, q) {
				t.Fatalf("trial %d: u·v[%d] = %v >= u·q = %v", trial, i, dot(u, v), dot(u, q))
			}
		}
	}
	if insides == 0 || outsides == 0 || negative == 0 {
		t.Fatalf("cases not covered: %d inside, %d outside, %d outside with a negative coordinate", insides, outsides, negative)
	}
}

func TestStatusString(t *testing.T) {
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" ||
		Unbounded.String() != "unbounded" || Status(42).String() != "Status(42)" {
		t.Error("Status.String mismatch")
	}
}

// Property: for random feasible bounded LPs over a box, the simplex optimum
// matches brute force over the box corners (objective linear => optimum at a
// corner of the box when the box is the only constraint set).
func TestSimplexMatchesBoxCorners(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		lo := make([]float64, n)
		hi := make([]float64, n)
		obj := make([]float64, n)
		for i := 0; i < n; i++ {
			lo[i] = rng.Float64()*4 - 2
			hi[i] = lo[i] + rng.Float64()*4 + 0.1
			obj[i] = rng.Float64()*4 - 2
		}
		var cons []Constraint
		for i := 0; i < n; i++ {
			row := make([]float64, n)
			row[i] = 1
			cons = append(cons, Constraint{Coeffs: row, Op: LE, RHS: hi[i]})
			rowNeg := make([]float64, n)
			rowNeg[i] = -1
			cons = append(cons, Constraint{Coeffs: rowNeg, Op: LE, RHS: -lo[i]})
		}
		free := make([]bool, n)
		for i := range free {
			free[i] = true
		}
		p := &Problem{NumVars: n, Objective: obj, Minimize: true, Constraints: cons, Free: free}
		sol, err := p.Solve(testEps)
		if err != nil || sol.Status != Optimal {
			return false
		}
		// Brute force: optimum of a linear function over a box.
		want := 0.0
		for i := 0; i < n; i++ {
			if obj[i] >= 0 {
				want += obj[i] * lo[i]
			} else {
				want += obj[i] * hi[i]
			}
		}
		return math.Abs(sol.Value-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: ChebyshevCenter of a random box is its midpoint with radius
// half the smallest side.
func TestChebyshevCenterBoxes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(3)
		lo := make([]float64, n)
		hi := make([]float64, n)
		minSide := math.Inf(1)
		var a [][]float64
		var b []float64
		for i := 0; i < n; i++ {
			lo[i] = rng.Float64()*10 - 5
			hi[i] = lo[i] + 0.5 + rng.Float64()*5
			if s := hi[i] - lo[i]; s < minSide {
				minSide = s
			}
			row := make([]float64, n)
			row[i] = 1
			a = append(a, row)
			b = append(b, hi[i])
			rowNeg := make([]float64, n)
			rowNeg[i] = -1
			a = append(a, rowNeg)
			b = append(b, -lo[i])
		}
		c, r, err := ChebyshevCenter(a, b, testEps)
		if err != nil {
			return false
		}
		if math.Abs(r-minSide/2) > 1e-6 {
			return false
		}
		// Centre must be inside the box and at distance >= r from each face.
		for i := 0; i < n; i++ {
			if c[i] < lo[i]+r-1e-6 || c[i] > hi[i]-r+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

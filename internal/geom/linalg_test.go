package geom

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func matFromRows(rows ...[]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for r, row := range rows {
		copy(m.Row(r), row)
	}
	return m
}

func TestSolveIdentity(t *testing.T) {
	a := matFromRows([]float64{1, 0}, []float64{0, 1})
	x, err := Solve(a, []float64{3, -4}, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(Point(x), NewPoint(3, -4), 1e-12) {
		t.Errorf("x = %v", x)
	}
}

func TestSolveKnownSystem(t *testing.T) {
	// 2x + y = 5; x - y = 1  => x=2, y=1
	a := matFromRows([]float64{2, 1}, []float64{1, -1})
	x, err := Solve(a, []float64{5, 1}, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(Point(x), NewPoint(2, 1), 1e-9) {
		t.Errorf("x = %v", x)
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Leading zero forces a row swap.
	a := matFromRows([]float64{0, 1}, []float64{1, 0})
	x, err := Solve(a, []float64{7, 9}, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(Point(x), NewPoint(9, 7), 1e-9) {
		t.Errorf("x = %v", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := matFromRows([]float64{1, 2}, []float64{2, 4})
	if _, err := Solve(a, []float64{1, 2}, 1e-9); !errors.Is(err, ErrSingular) {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestSolveShapeErrors(t *testing.T) {
	rect := NewMatrix(2, 3)
	if _, err := Solve(rect, []float64{1, 2}, 1e-9); err == nil {
		t.Error("non-square should error")
	}
	sq := NewMatrix(2, 2)
	if _, err := Solve(sq, []float64{1}, 1e-9); err == nil {
		t.Error("rhs size mismatch should error")
	}
}

func TestDet(t *testing.T) {
	tests := []struct {
		name string
		m    *Matrix
		want float64
	}{
		{"identity", matFromRows([]float64{1, 0}, []float64{0, 1}), 1},
		{"swap", matFromRows([]float64{0, 1}, []float64{1, 0}), -1},
		{"2x2", matFromRows([]float64{3, 8}, []float64{4, 6}), -14},
		{"singular", matFromRows([]float64{2, 4}, []float64{1, 2}), 0},
		{"3x3", matFromRows(
			[]float64{6, 1, 1},
			[]float64{4, -2, 5},
			[]float64{2, 8, 7}), -306},
	}
	for _, tt := range tests {
		got, err := Det(tt.m, 1e-12)
		if err != nil {
			t.Fatalf("%s: %v", tt.name, err)
		}
		if !almostEqual(got, tt.want, 1e-9) {
			t.Errorf("%s: Det = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestRank(t *testing.T) {
	tests := []struct {
		name string
		m    *Matrix
		want int
	}{
		{"full", matFromRows([]float64{1, 0}, []float64{0, 1}), 2},
		{"rank1", matFromRows([]float64{1, 2}, []float64{2, 4}), 1},
		{"zero", NewMatrix(3, 3), 0},
		{"wide", matFromRows([]float64{1, 0, 0}, []float64{0, 1, 0}), 2},
		{"tall", matFromRows([]float64{1, 1}, []float64{2, 2}, []float64{3, 3}), 1},
	}
	for _, tt := range tests {
		if got := Rank(tt.m, 1e-9); got != tt.want {
			t.Errorf("%s: Rank = %d, want %d", tt.name, got, tt.want)
		}
	}
}

// Property: Solve(a, a*x) recovers x for well-conditioned random matrices.
func TestSolveRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = rng.Float64()*4 - 2
		}
		// Diagonal dominance keeps the matrix well conditioned.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()*10 - 5
		}
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b[i] += a.At(i, j) * x[j]
			}
		}
		got, err := Solve(a, b, 1e-12)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAffineBasis(t *testing.T) {
	// Three collinear 3-D points span a 1-D affine subspace.
	pts := []Point{NewPoint(0, 0, 0), NewPoint(1, 1, 1), NewPoint(2, 2, 2)}
	ab, err := NewAffineBasis(pts, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if ab.Dim() != 1 {
		t.Fatalf("Dim = %d, want 1", ab.Dim())
	}
	if ab.AmbientDim() != 3 {
		t.Fatalf("AmbientDim = %d, want 3", ab.AmbientDim())
	}
	// Round trip through project/lift for a point on the line.
	p := NewPoint(1.5, 1.5, 1.5)
	back := ab.Lift(ab.Project(p))
	if !Equal(back, p, 1e-9) {
		t.Errorf("Lift(Project(p)) = %v, want %v", back, p)
	}
	if d := ab.DistanceToSubspace(p); d > 1e-9 {
		t.Errorf("on-line point has distance %v", d)
	}
	// Off-line point: distance from (1,0,0) to span{(1,1,1)/sqrt3} is sqrt(2/3).
	if d := ab.DistanceToSubspace(NewPoint(1, 0, 0)); !almostEqual(d, math.Sqrt(2.0/3.0), 1e-9) {
		t.Errorf("distance = %v, want %v", d, math.Sqrt(2.0/3.0))
	}
}

func TestAffineDim(t *testing.T) {
	tests := []struct {
		name string
		pts  []Point
		want int
	}{
		{"point", []Point{NewPoint(1, 2)}, 0},
		{"segment", []Point{NewPoint(0, 0), NewPoint(1, 0)}, 1},
		{"triangle", []Point{NewPoint(0, 0), NewPoint(1, 0), NewPoint(0, 1)}, 2},
		{"planar in 3d", []Point{NewPoint(0, 0, 0), NewPoint(1, 0, 0), NewPoint(0, 1, 0), NewPoint(1, 1, 0)}, 2},
		{"tetra", []Point{NewPoint(0, 0, 0), NewPoint(1, 0, 0), NewPoint(0, 1, 0), NewPoint(0, 0, 1)}, 3},
	}
	for _, tt := range tests {
		got, err := AffineDim(tt.pts, 1e-9)
		if err != nil {
			t.Fatalf("%s: %v", tt.name, err)
		}
		if got != tt.want {
			t.Errorf("%s: AffineDim = %d, want %d", tt.name, got, tt.want)
		}
	}
	if _, err := AffineDim(nil, 1e-9); err == nil {
		t.Error("empty set should error")
	}
}

// Det returns the determinant of the square matrix a.
func Det(a *Matrix, eps float64) (float64, error) {
	if a.Rows != a.Cols {
		return 0, fmt.Errorf("geom: determinant needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	f := luDecompose(a, eps)
	if f.rank < a.Rows {
		return 0, nil
	}
	det := f.sign
	for i := 0; i < a.Rows; i++ {
		det *= f.m.At(i, i)
	}
	return det, nil
}

// Rank returns the numerical rank of a with tolerance eps, computed by
// Gaussian elimination with full row pivoting per column.
func Rank(a *Matrix, eps float64) int {
	m := a.Clone()
	rank := 0
	for col := 0; col < m.Cols && rank < m.Rows; col++ {
		// Find pivot row at or below `rank`.
		best, bestAbs := -1, eps
		for r := rank; r < m.Rows; r++ {
			if ab := math.Abs(m.At(r, col)); ab > bestAbs {
				best, bestAbs = r, ab
			}
		}
		if best < 0 {
			continue
		}
		if best != rank {
			rb, rr := m.Row(best), m.Row(rank)
			for j := range rb {
				rb[j], rr[j] = rr[j], rb[j]
			}
		}
		inv := 1 / m.At(rank, col)
		for r := rank + 1; r < m.Rows; r++ {
			f := m.At(r, col) * inv
			if f == 0 {
				continue
			}
			rr, rp := m.Row(r), m.Row(rank)
			for j := col; j < m.Cols; j++ {
				rr[j] -= f * rp[j]
			}
		}
		rank++
	}
	return rank
}

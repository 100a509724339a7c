package geom

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a linear solve encounters a (numerically)
// singular matrix.
var ErrSingular = errors.New("geom: singular matrix")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, Data[r*Cols+c]
}

// NewMatrix returns a zero Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at row r, column c.
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns the element at row r, column c.
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Row returns a view of row r (not a copy).
func (m *Matrix) Row(r int) []float64 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// lu holds an LU decomposition with partial pivoting: PA = LU.
type lu struct {
	m     *Matrix // packed L (unit diagonal, below) and U (on/above diagonal)
	pivot []int
	sign  float64
	rank  int
	eps   float64
}

// luDecompose factorises a copy of m. It never fails; singularity is
// reflected in the reported rank.
func luDecompose(m *Matrix, eps float64) *lu {
	a := m.Clone()
	piv := make([]int, m.Rows)
	sign, rank := eliminate(a, piv, eps)
	return &lu{m: a, pivot: piv, sign: sign, rank: rank, eps: eps}
}

// eliminate runs in-place LU elimination with partial pivoting on a,
// recording the row permutation in piv. It returns the permutation sign and
// the numerical rank.
func eliminate(a *Matrix, piv []int, eps float64) (float64, int) {
	n := a.Rows
	for i := range piv {
		piv[i] = i
	}
	sign := 1.0
	rank := 0
	for k := 0; k < n && k < a.Cols; k++ {
		// Partial pivot: largest |a[i][k]| for i >= k.
		best, bestAbs := k, math.Abs(a.At(k, k))
		for i := k + 1; i < n; i++ {
			if ab := math.Abs(a.At(i, k)); ab > bestAbs {
				best, bestAbs = i, ab
			}
		}
		if bestAbs <= eps {
			continue // column is (numerically) zero below the diagonal
		}
		if best != k {
			rk, rb := a.Row(k), a.Row(best)
			for j := range rk {
				rk[j], rb[j] = rb[j], rk[j]
			}
			piv[k], piv[best] = piv[best], piv[k]
			sign = -sign
		}
		rank++
		inv := 1 / a.At(k, k)
		for i := k + 1; i < n; i++ {
			f := a.At(i, k) * inv
			a.Set(i, k, f)
			if f == 0 {
				continue
			}
			ri, rk := a.Row(i), a.Row(k)
			for j := k + 1; j < a.Cols; j++ {
				ri[j] -= f * rk[j]
			}
		}
	}
	return sign, rank
}

// DetScratch computes determinants like Det while reusing one factorisation
// buffer across calls, so repeated same-size determinants (the cofactor
// expansions of facet enumeration) allocate nothing in steady state. Not
// safe for concurrent use; the zero value is ready.
type DetScratch struct {
	buf Matrix
	piv []int
}

// Det returns the determinant of the square matrix a, reusing s's buffers.
// It is bitwise-identical to the allocating Det of the package's tests.
func (s *DetScratch) Det(a *Matrix, eps float64) (float64, error) {
	if a.Rows != a.Cols {
		return 0, fmt.Errorf("geom: determinant needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	if cap(s.buf.Data) < len(a.Data) {
		s.buf.Data = make([]float64, len(a.Data))
	}
	s.buf.Rows, s.buf.Cols = a.Rows, a.Cols
	s.buf.Data = s.buf.Data[:len(a.Data)]
	copy(s.buf.Data, a.Data)
	if cap(s.piv) < n {
		s.piv = make([]int, n)
	}
	sign, rank := eliminate(&s.buf, s.piv[:n], eps)
	if rank < n {
		return 0, nil
	}
	det := sign
	for i := 0; i < n; i++ {
		det *= s.buf.At(i, i)
	}
	return det, nil
}

// Solve solves the square system A x = b using LU with partial pivoting.
func Solve(a *Matrix, b []float64, eps float64) ([]float64, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("geom: solve needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if a.Rows != len(b) {
		return nil, fmt.Errorf("geom: matrix is %dx%d but rhs has %d entries", a.Rows, a.Cols, len(b))
	}
	n := a.Rows
	f := luDecompose(a, eps)
	if f.rank < n {
		return nil, ErrSingular
	}
	// Apply the row permutation to b.
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.pivot[i]]
	}
	// Forward substitution with unit-diagonal L.
	for i := 1; i < n; i++ {
		ri := f.m.Row(i)
		for j := 0; j < i; j++ {
			x[i] -= ri[j] * x[j]
		}
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		ri := f.m.Row(i)
		for j := i + 1; j < n; j++ {
			x[i] -= ri[j] * x[j]
		}
		d := ri[i]
		if math.Abs(d) <= eps {
			return nil, ErrSingular
		}
		x[i] /= d
	}
	return x, nil
}

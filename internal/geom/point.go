// Package geom provides the low-level geometric and linear-algebra substrate
// used by the convex hull consensus library: points in d-dimensional
// Euclidean space, dense matrices, LU decomposition, rank computation, and
// affine-subspace utilities.
//
// All computations use float64 with explicit tolerances. The package defines
// DefaultEps, the tolerance used by the higher layers unless overridden.
package geom

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// DefaultEps is the default absolute tolerance for geometric predicates.
const DefaultEps = 1e-9

// Point is a point in d-dimensional Euclidean space (equivalently a
// d-dimensional real vector). The dimension is len(p).
type Point []float64

// NewPoint returns a copy of coords as a Point.
func NewPoint(coords ...float64) Point {
	p := make(Point, len(coords))
	copy(p, coords)
	return p
}

// Zero returns the origin of the d-dimensional space.
func Zero(d int) Point { return make(Point, d) }

// Dim returns the dimension of the space the point lives in.
func (p Point) Dim() int { return len(p) }

// Clone returns an independent copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Add returns p + q.
func (p Point) Add(q Point) Point {
	r := make(Point, len(p))
	for i := range p {
		r[i] = p[i] + q[i]
	}
	return r
}

// Sub returns p - q.
func (p Point) Sub(q Point) Point {
	r := make(Point, len(p))
	for i := range p {
		r[i] = p[i] - q[i]
	}
	return r
}

// Scale returns c * p.
func (p Point) Scale(c float64) Point {
	r := make(Point, len(p))
	for i := range p {
		r[i] = c * p[i]
	}
	return r
}

// AddScaled returns p + c*q.
func (p Point) AddScaled(c float64, q Point) Point {
	r := make(Point, len(p))
	for i := range p {
		r[i] = p[i] + c*q[i]
	}
	return r
}

// Dot returns the inner product of p and q.
func (p Point) Dot(q Point) float64 {
	var s float64
	for i := range p {
		s += p[i] * q[i]
	}
	return s
}

// Norm returns the Euclidean norm of p.
func (p Point) Norm() float64 { return math.Sqrt(p.Dot(p)) }

// NormInf returns the maximum absolute coordinate of p.
func (p Point) NormInf() float64 {
	var m float64
	for _, v := range p {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Dist returns the Euclidean distance d_E(p, q).
func Dist(p, q Point) float64 {
	var s float64
	for i := range p {
		d := p[i] - q[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Equal reports whether p and q coincide within absolute tolerance eps in
// every coordinate.
func Equal(p, q Point, eps float64) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if math.Abs(p[i]-q[i]) > eps {
			return false
		}
	}
	return true
}

// SameBits reports whether p and q have the same dimension and bitwise
// identical coordinates (so 0 and -0 differ, and a NaN equals itself).
func SameBits(p, q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if math.Float64bits(p[i]) != math.Float64bits(q[i]) {
			return false
		}
	}
	return true
}

// SameBitsList reports whether a and b hold the same number of points and
// SameBits holds for each pair in order. Two views of one list are equal
// without a compare.
func SameBitsList(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	if SameList(a, b) {
		return true
	}
	for i := range a {
		if !SameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

// SameList reports whether a and b are one list: the same length over the
// same backing array. For lists nobody modifies, that makes them equal.
func SameList(a, b []Point) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// Lex compares p and q lexicographically with tolerance eps, returning
// -1, 0, or +1. Coordinates within eps of each other are treated as equal.
func Lex(p, q Point, eps float64) int {
	for i := range p {
		switch {
		case p[i] < q[i]-eps:
			return -1
		case p[i] > q[i]+eps:
			return 1
		}
	}
	return 0
}

// Centroid returns the arithmetic mean of pts. It returns an error when pts
// is empty or the points disagree on dimension.
func Centroid(pts []Point) (Point, error) {
	if len(pts) == 0 {
		return nil, errors.New("geom: centroid of empty point set")
	}
	d := len(pts[0])
	c := make(Point, d)
	for _, p := range pts {
		if len(p) != d {
			return nil, fmt.Errorf("geom: mixed dimensions %d and %d", d, len(p))
		}
		for i := range p {
			c[i] += p[i]
		}
	}
	inv := 1 / float64(len(pts))
	for i := range c {
		c[i] *= inv
	}
	return c, nil
}

// Combination returns the linear combination sum_i w[i]*pts[i]. The weights
// are not required to sum to one; callers enforcing convexity must do so.
func Combination(pts []Point, w []float64) (Point, error) {
	if len(pts) != len(w) {
		return nil, fmt.Errorf("geom: %d points but %d weights", len(pts), len(w))
	}
	if len(pts) == 0 {
		return nil, errors.New("geom: combination of empty point set")
	}
	r := make(Point, len(pts[0]))
	for i, p := range pts {
		for j := range p {
			r[j] += w[i] * p[j]
		}
	}
	return r, nil
}

// String renders the point as "(x1, x2, ...)" with compact float formatting.
func (p Point) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range p {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(strconv.FormatFloat(v, 'g', 6, 64))
	}
	b.WriteByte(')')
	return b.String()
}

// IsFinite reports whether every coordinate of p is finite (no NaN/Inf).
func (p Point) IsFinite() bool {
	for _, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// BoundingBox returns per-coordinate minima and maxima over pts.
func BoundingBox(pts []Point) (lo, hi Point, err error) {
	if len(pts) == 0 {
		return nil, nil, errors.New("geom: bounding box of empty point set")
	}
	d := len(pts[0])
	lo, hi = pts[0].Clone(), pts[0].Clone()
	for _, p := range pts[1:] {
		if len(p) != d {
			return nil, nil, fmt.Errorf("geom: mixed dimensions %d and %d", d, len(p))
		}
		for i, v := range p {
			if v < lo[i] {
				lo[i] = v
			}
			if v > hi[i] {
				hi[i] = v
			}
		}
	}
	return lo, hi, nil
}

// Dedup returns pts with points that coincide within eps removed, preserving
// first-occurrence order. It runs in O(k^2) which is fine for the small point
// sets handled by the consensus layers.
func Dedup(pts []Point, eps float64) []Point {
	out := make([]Point, 0, len(pts))
	for _, p := range pts {
		dup := false
		for _, q := range out {
			if Equal(p, q, eps) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, p)
		}
	}
	return out
}

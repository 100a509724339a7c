package geom

import (
	"errors"
	"math"
)

// AffineBasis describes the affine hull of a point set: an origin point and
// an orthonormal basis of the direction subspace. It supports projecting
// ambient points into subspace coordinates and lifting them back, which the
// hull kernel uses to handle degenerate (lower-dimensional) inputs.
type AffineBasis struct {
	Origin Point   // a point on the affine subspace
	Basis  []Point // orthonormal directions spanning the subspace
}

// Dim returns the dimension of the affine subspace.
func (ab *AffineBasis) Dim() int { return len(ab.Basis) }

// AmbientDim returns the dimension of the surrounding space.
func (ab *AffineBasis) AmbientDim() int { return len(ab.Origin) }

var errNoPoints = errors.New("geom: affine basis of empty point set")

// NewAffineBasis computes the affine hull of pts by Gram-Schmidt with
// tolerance eps. The returned basis has between 0 (single point) and
// len(pts[0]) directions.
func NewAffineBasis(pts []Point, eps float64) (*AffineBasis, error) {
	if len(pts) == 0 {
		return nil, errNoPoints
	}
	origin := pts[0].Clone()
	d := len(origin)
	flat := make([]float64, (d+1)*d)
	basis := make([]Point, gramSchmidt(pts, flat, eps))
	for i := range basis {
		basis[i] = flat[i*d : (i+1)*d : (i+1)*d]
	}
	return &AffineBasis{Origin: origin, Basis: basis}, nil
}

// gramSchmidt runs NewAffineBasis's orthonormalisation of pts[i] − pts[0]
// in buf, which holds d+1 rows of d = len(pts[0]): the directions found go
// to its first rows, the last is the vector being reduced. It returns how
// many directions it found.
func gramSchmidt(pts []Point, buf []float64, eps float64) int {
	origin := pts[0]
	d := len(origin)
	v := Point(buf[d*d : (d+1)*d])
	k := 0
	for _, p := range pts[1:] {
		if k == d {
			break
		}
		for i := range v {
			v[i] = p[i] - origin[i]
		}
		// Remove components along the existing basis.
		for j := 0; j < k; j++ {
			b := Point(buf[j*d : (j+1)*d])
			c := -v.Dot(b)
			for i := range v {
				v[i] = v[i] + c*b[i]
			}
		}
		if n := v.Norm(); n > eps {
			c := 1 / n
			for i, a := range v {
				buf[k*d+i] = c * a
			}
			k++
		}
	}
	return k
}

// Project maps an ambient point to coordinates in the subspace basis. If the
// point is not on the subspace, the result is the projection's coordinates.
func (ab *AffineBasis) Project(p Point) Point {
	v := p.Sub(ab.Origin)
	out := make(Point, len(ab.Basis))
	for i, b := range ab.Basis {
		out[i] = v.Dot(b)
	}
	return out
}

// Lift maps subspace coordinates back to the ambient space.
func (ab *AffineBasis) Lift(coords Point) Point {
	p := ab.Origin.Clone()
	for i, b := range ab.Basis {
		p = p.AddScaled(coords[i], b)
	}
	return p
}

// DistanceToSubspace returns the Euclidean distance from p to the affine
// subspace.
func (ab *AffineBasis) DistanceToSubspace(p Point) float64 {
	v := p.Sub(ab.Origin)
	var along float64
	for _, b := range ab.Basis {
		c := v.Dot(b)
		along += c * c
	}
	total := v.Dot(v)
	if r := total - along; r > 0 {
		return math.Sqrt(r)
	}
	return 0
}

// AffineDim returns the dimension of the affine hull of pts (0 for a single
// point, up to the ambient dimension): NewAffineBasis's Dim, found without
// allocating in d <= 4.
func AffineDim(pts []Point, eps float64) (int, error) {
	if len(pts) == 0 {
		return 0, errNoPoints
	}
	var small [20]float64
	d := len(pts[0])
	buf := small[:]
	if (d+1)*d > len(small) {
		buf = make([]float64, (d+1)*d)
	}
	return gramSchmidt(pts, buf, eps), nil
}

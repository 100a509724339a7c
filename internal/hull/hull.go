// Package hull computes convex hulls and their facet (halfspace)
// representations in d-dimensional Euclidean space, and clips polytopes by
// halfspaces, without a linear program. Dimension 1 uses exact interval
// arithmetic and dimension 2 a monotone chain with polygon membership,
// distance and Minkowski sums. In d >= 3 ConvexHull (the function H of the
// paper) and Facets come from one beneath-beyond construction over
// simplicial facets; flat inputs are solved in their affine hull. In every
// d >= 2 ClipHull and ClipBox clip a vertex list by halfspaces (the
// double-description method) for round 0's depth region and for
// intersections. All of them call a point on a plane within 10·eps times
// the data magnitude.
package hull

import (
	"errors"
	"fmt"

	"chc/internal/geom"
)

// ErrEmpty is returned when an operation needs a non-empty point set.
var ErrEmpty = errors.New("hull: empty point set")

// Facet is the halfspace Normal·x <= Offset. A polytope's H-representation
// is a conjunction of facets; degenerate (lower-dimensional) polytopes are
// represented with opposing facet pairs encoding equalities.
type Facet struct {
	Normal geom.Point
	Offset float64
}

// Eval returns Normal·p - Offset: negative inside, positive outside.
func (f Facet) Eval(p geom.Point) float64 { return f.Normal.Dot(p) - f.Offset }

// ConvexHull returns the vertices of the convex hull of pts (the function
// H(X) of the paper, Definition 1, applied to a multiset of points). For
// d == 2 the vertices are returned in counter-clockwise order; in d >= 3
// they are input points, bit for bit, in input order, the first of points
// within eps of each other standing for them all.
func ConvexHull(pts []geom.Point, eps float64) ([]geom.Point, error) {
	if len(pts) == 0 {
		return nil, ErrEmpty
	}
	d := pts[0].Dim()
	for i, p := range pts {
		if p.Dim() != d {
			return nil, fmt.Errorf("hull: point %d has dimension %d, want %d", i, p.Dim(), d)
		}
		if !p.IsFinite() {
			return nil, fmt.Errorf("hull: point %d is not finite: %v", i, p)
		}
	}
	if d >= 3 {
		h, err := hullND(pts, eps)
		if err != nil {
			return nil, err
		}
		verts := make([]geom.Point, len(h.idx))
		for k, i := range h.idx {
			verts[k] = pts[i].Clone()
		}
		return verts, nil
	}
	uniq := geom.Dedup(pts, eps)
	switch {
	case len(uniq) == 1:
		return []geom.Point{uniq[0].Clone()}, nil
	case d == 1:
		lo, hi, err := geom.BoundingBox(uniq)
		if err != nil {
			return nil, err
		}
		return []geom.Point{lo, hi}, nil
	default:
		return MonotoneChain(uniq, eps), nil
	}
}

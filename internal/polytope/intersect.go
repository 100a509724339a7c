package polytope

import (
	"errors"
	"fmt"
	"sort"

	"chc/internal/geom"
	"chc/internal/hull"
)

// Intersect returns the intersection of the given polytopes. It returns
// ErrEmpty when the intersection is empty. Intersections that touch only in
// a face are returned as the (lower-dimensional) face. Two calls with the
// same operands produce bitwise-identical results.
func Intersect(polys []*Polytope, eps float64) (*Polytope, error) {
	if len(polys) == 0 {
		return nil, errors.New("polytope: intersect of zero polytopes")
	}
	d := polys[0].Dim()
	for i, p := range polys {
		if len(p.verts) == 0 {
			return nil, ErrEmpty
		}
		if p.Dim() != d {
			return nil, fmt.Errorf("polytope: operand %d has dimension %d, want %d", i, p.Dim(), d)
		}
	}
	if len(polys) == 1 {
		return fromHullVerts(polys[0].Vertices()), nil
	}
	if d == 1 {
		return intersect1D(polys, eps)
	}
	return intersectND(polys, eps)
}

// DepthRegion returns ∩ H(C) over the (|pts|−f)-subsets C of the multiset
// pts: h_i[0] on line 5 of Algorithm CC, the points of Tukey depth at least
// f+1. It is built from one halfspace representation and one intersection
// rather than from C(|pts|, f) hulls. In 1-D it is the interval between the
// (f+1)-th and (|pts|−f)-th order statistics. In d >= 2 the halfspaces are
// the hyperplanes through d inputs with at most f inputs strictly outside,
// hull.DepthHalfspaces, and they clip the hull of pts by the
// double-description method (hull.ClipHull), so no linear program is solved.
// Inputs whose affine hull is lower-dimensional are solved in that subspace
// and lifted back, as hull.Facets does. It returns ErrEmpty when the region is empty, which
// Lemma 2 rules out when |pts| >= (d+1)f+1.
func DepthRegion(pts []geom.Point, f int, eps float64) (*Polytope, error) {
	if len(pts) == 0 {
		return nil, ErrEmpty
	}
	if f == 0 {
		return New(pts, eps)
	}
	if f < 0 || f >= len(pts) {
		return nil, fmt.Errorf("polytope: depth region of %d points excluding f = %d", len(pts), f)
	}
	d := pts[0].Dim()
	for i, p := range pts {
		if p.Dim() != d {
			return nil, fmt.Errorf("polytope: point %d has dimension %d, want %d", i, p.Dim(), d)
		}
		if !p.IsFinite() {
			return nil, fmt.Errorf("polytope: point %d is not finite: %v", i, p)
		}
	}
	k, err := geom.AffineDim(pts, eps)
	if err != nil {
		return nil, err
	}
	switch {
	case k == 0:
		return FromPoint(pts[0]), nil
	case k < d:
		ab, err := geom.NewAffineBasis(pts, eps)
		if err != nil {
			return nil, err
		}
		proj := make([]geom.Point, len(pts))
		for i, p := range pts {
			proj[i] = ab.Project(p)
		}
		sub, err := DepthRegion(proj, f, eps)
		if err != nil {
			return nil, err
		}
		verts := make([]geom.Point, len(sub.verts))
		for i, v := range sub.verts {
			verts[i] = ab.Lift(v)
		}
		return New(verts, eps)
	}
	if d == 1 {
		vals := make([]float64, len(pts))
		for i, p := range pts {
			vals[i] = p[0]
		}
		sort.Float64s(vals)
		return interval(vals[f], vals[len(vals)-1-f], eps)
	}
	return clipped(hull.ClipHull(pts, f, eps))
}

func intersect1D(polys []*Polytope, eps float64) (*Polytope, error) {
	lo, hi := -1e308, 1e308
	for _, p := range polys {
		plo, phi, err := p.BoundingBox()
		if err != nil {
			return nil, err
		}
		if plo[0] > lo {
			lo = plo[0]
		}
		if phi[0] < hi {
			hi = phi[0]
		}
	}
	return interval(lo, hi, eps)
}

// interval returns the segment [lo, hi], the midpoint when the ends cross
// within eps, and ErrEmpty when they cross by more.
func interval(lo, hi, eps float64) (*Polytope, error) {
	switch {
	case lo > hi+eps:
		return nil, ErrEmpty
	case lo >= hi: // touching within eps: a single point
		mid := (lo + hi) / 2
		return FromPoint(geom.NewPoint(mid)), nil
	default:
		return fromHullVerts([]geom.Point{geom.NewPoint(lo), geom.NewPoint(hi)}), nil
	}
}

// intersectND intersects polytopes in d >= 2: every operand's facets clip
// the intersection of the operands' bounding boxes.
func intersectND(polys []*Polytope, eps float64) (*Polytope, error) {
	var hs []hull.Facet
	var lo, hi geom.Point
	scale := 1.0
	for _, p := range polys {
		facets, err := p.Facets(eps)
		if err != nil {
			return nil, err
		}
		hs = append(hs, facets...)
		plo, phi, err := p.BoundingBox()
		if err != nil {
			return nil, err
		}
		if lo == nil {
			lo, hi = plo, phi
		}
		for j := range lo {
			lo[j], hi[j] = max(lo[j], plo[j]), min(hi[j], phi[j])
		}
		scale = max(scale, hull.DataScale(p.verts))
	}
	return clipBox(lo, hi, hs, scale, eps)
}

// clipBox is hull.ClipBox as a polytope, or ErrEmpty; lo and hi are
// overwritten.
func clipBox(lo, hi geom.Point, hs []hull.Facet, scale, eps float64) (*Polytope, error) {
	return clipped(hull.ClipBox(lo, hi, hs, scale, eps))
}

func clipped(verts []geom.Point) (*Polytope, error) {
	if verts == nil {
		return nil, ErrEmpty
	}
	return fromHullVerts(verts), nil
}

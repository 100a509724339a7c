package polytope

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"chc/internal/geom"
	"chc/internal/hull"
	"chc/internal/lp"
)

// degenerateRadiusFactor decides when a Chebyshev radius is "essentially
// zero" and the d>=3 intersection falls back to support-direction
// enumeration.
const degenerateRadiusFactor = 1e-7

// supportSampleDirs is the number of random directions (in addition to the
// 2d axis directions) used by the degenerate-intersection fallback.
const supportSampleDirs = 64

// DefaultDirSeed seeds the random support directions of the degenerate
// d >= 3 intersection fallback. Intersect has always used this seed; keep it
// so recorded traces and WAL replays stay byte-identical across versions.
const DefaultDirSeed = 42

// Intersect returns the intersection of the given polytopes. It returns
// ErrEmpty when the intersection is empty. Intersections that touch only in
// a face are returned as the (lower-dimensional) face.
//
// This is the operation on line 5 of Algorithm CC, where each operand is the
// convex hull of an (|X_i| - f)-subset of the received inputs.
func Intersect(polys []*Polytope, eps float64) (*Polytope, error) {
	return IntersectSeeded(polys, eps, DefaultDirSeed)
}

// IntersectSeeded is Intersect with a caller-supplied seed for the random
// support directions of the degenerate fallback (only reachable for d >= 3).
// Two calls with the same operands and seed produce bitwise-identical
// results; Intersect is the dirSeed = DefaultDirSeed special case.
func IntersectSeeded(polys []*Polytope, eps float64, dirSeed int64) (*Polytope, error) {
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
	switch d {
	case 1:
		return intersect1D(polys, eps)
	case 2:
		return intersect2D(polys, eps)
	default:
		return intersectND(polys, eps, dirSeed)
	}
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

func intersect2D(polys []*Polytope, eps float64) (*Polytope, error) {
	cur := polys[0].verts
	for _, p := range polys[1:] {
		cur = hull.IntersectConvexPolygons(cur, p.verts, eps)
		if len(cur) == 0 {
			return nil, ErrEmpty
		}
	}
	return fromHullVerts(cur), nil
}

// lpPool hands supportSample one LP workspace per call, so concurrent
// callers each take their own.
var lpPool = sync.Pool{New: func() any { return lp.NewWorkspace() }}

// intersectND intersects polytopes in d >= 3 via halfspace representations:
// collect all facets, find a Chebyshev centre, and enumerate the vertices of
// the intersection by polar duality (facets of the dual hull around the
// centre correspond to vertices of the intersection). Degenerate
// intersections fall back to support-direction enumeration, which returns an
// inner approximation that is exact for the point/segment cases that arise
// at the resilience boundary.
func intersectND(polys []*Polytope, eps float64, dirSeed int64) (*Polytope, error) {
	var a [][]float64
	var b []float64
	scale := 1.0
	for _, p := range polys {
		facets, err := p.Facets(eps)
		if err != nil {
			return nil, err
		}
		for _, f := range facets {
			a = append(a, f.Normal)
			b = append(b, f.Offset)
		}
		for _, v := range p.verts {
			if m := v.NormInf(); m > scale {
				scale = m
			}
		}
	}
	center, radius, err := lp.ChebyshevCenter(a, b, eps)
	switch {
	case errors.Is(err, lp.ErrInfeasible):
		return nil, ErrEmpty
	case err != nil:
		return nil, fmt.Errorf("polytope: chebyshev centre: %w", err)
	}
	if radius <= degenerateRadiusFactor*scale {
		return supportSample(a, b, center, eps, dirSeed)
	}

	// Polar duality around the centre: halfspace a·x <= b becomes the dual
	// point a / (b - a·center); vertices of the intersection correspond to
	// facets of the dual hull.
	d := len(center)
	duals := make([]geom.Point, 0, len(a))
	for i := range a {
		margin := b[i] - geom.Point(a[i]).Dot(center)
		if margin <= eps {
			// Numerically tight at the centre despite a positive radius;
			// treat as degenerate to stay safe.
			return supportSample(a, b, center, eps, dirSeed)
		}
		duals = append(duals, geom.Point(a[i]).Scale(1/margin))
	}
	dualVerts, err := hull.ExtremeFilter(duals, eps)
	if err != nil {
		return nil, fmt.Errorf("polytope: dual filtering: %w", err)
	}
	if len(dualVerts) < d+1 {
		// The dual hull is lower-dimensional, meaning the primal is
		// unbounded in some direction — impossible for intersections of
		// bounded polytopes, so this is numerical degeneracy.
		return supportSample(a, b, center, eps, dirSeed)
	}
	dualFacets, err := hull.Facets(dualVerts, eps)
	if err != nil {
		return nil, fmt.Errorf("polytope: dual facets: %w", err)
	}
	verts := make([]geom.Point, 0, len(dualFacets))
	for _, f := range dualFacets {
		if f.Offset <= eps {
			continue // facet through the dual origin: vertex at infinity
		}
		verts = append(verts, f.Normal.Scale(1/f.Offset).Add(center))
	}
	if len(verts) == 0 {
		return supportSample(a, b, center, eps, dirSeed)
	}
	return New(verts, eps)
}

// supportSample enumerates extreme points of {x : Ax <= b} by maximising
// along the +-axis directions and a deterministic, seed-derived set of
// random directions. For full-dimensional polytopes this is an inner
// approximation; for the degenerate (point / segment / low-dimensional)
// intersections it is exact up to LP tolerance.
func supportSample(a [][]float64, b []float64, center []float64, eps float64, dirSeed int64) (*Polytope, error) {
	d := len(center)
	rng := rand.New(rand.NewSource(dirSeed)) // deterministic direction set
	dirs := make([]geom.Point, 0, 2*d+supportSampleDirs)
	for i := 0; i < d; i++ {
		e := geom.Zero(d)
		e[i] = 1
		dirs = append(dirs, e, e.Scale(-1))
	}
	for i := 0; i < supportSampleDirs; i++ {
		v := geom.Zero(d)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		if n := v.Norm(); n > eps {
			dirs = append(dirs, v.Scale(1/n))
		}
	}
	ws := lpPool.Get().(*lp.Workspace)
	defer lpPool.Put(ws)
	pts := make([]geom.Point, len(dirs))
	for i, dir := range dirs {
		x, _, err := lp.MaximizeOverHalfspacesWith(ws, dir, a, b, eps)
		if errors.Is(err, lp.ErrInfeasible) {
			return nil, ErrEmpty
		}
		if err != nil {
			return nil, fmt.Errorf("polytope: support sampling: %w", err)
		}
		pts[i] = geom.Point(x)
	}
	if len(pts) == 0 {
		return FromPoint(geom.Point(center).Clone()), nil
	}
	return New(pts, eps)
}

package hull

import (
	"fmt"
	"math"
	"sync"

	"chc/internal/geom"
)

// Facets computes a halfspace representation of the convex hull of verts.
// The input should already be a vertex set (e.g. the output of ConvexHull);
// interior points are harmless but slow the enumeration down.
//
// Full-dimensional hulls yield one facet per geometric facet (with unit
// outward normals). Lower-dimensional hulls yield the facets of the hull
// within its affine subspace, lifted to the ambient space, plus a pair of
// opposing halfspaces per orthogonal direction that pin the subspace.
func Facets(verts []geom.Point, eps float64) ([]Facet, error) {
	if len(verts) == 0 {
		return nil, ErrEmpty
	}
	d := verts[0].Dim()
	ab, err := geom.NewAffineBasis(verts, eps)
	if err != nil {
		return nil, err
	}
	k := ab.Dim()
	if k == d {
		return fullDimFacets(verts, eps)
	}
	// Degenerate: solve in the k-dimensional subspace and lift back.
	var sub []Facet
	if k > 0 {
		proj := make([]geom.Point, len(verts))
		for i, v := range verts {
			proj[i] = ab.Project(v)
		}
		subVerts, err := ConvexHull(proj, eps)
		if err != nil {
			return nil, err
		}
		subFacets, err := Facets(subVerts, eps)
		if err != nil {
			return nil, err
		}
		sub = make([]Facet, 0, len(subFacets))
		for _, f := range subFacets {
			// y = B^T (x - origin), so n~·y <= b~ becomes a·x <= b~ + a·origin
			// with a = sum_i n~_i basis_i.
			a := geom.Zero(d)
			for i, bi := range ab.Basis {
				a = a.AddScaled(f.Normal[i], bi)
			}
			sub = append(sub, Facet{Normal: a, Offset: f.Offset + a.Dot(ab.Origin)})
		}
	}
	// Pin the affine subspace with equality pairs along a complement basis.
	comp := complementBasis(ab, eps)
	for _, u := range comp {
		off := u.Dot(ab.Origin)
		sub = append(sub,
			Facet{Normal: u.Clone(), Offset: off},
			Facet{Normal: u.Scale(-1), Offset: -off},
		)
	}
	return sub, nil
}

// complementBasis returns an orthonormal basis of the orthogonal complement
// of ab's direction subspace.
func complementBasis(ab *geom.AffineBasis, eps float64) []geom.Point {
	d := ab.AmbientDim()
	basis := make([]geom.Point, len(ab.Basis), d)
	copy(basis, ab.Basis)
	var comp []geom.Point
	for j := 0; j < d && len(basis) < d; j++ {
		v := geom.Zero(d)
		v[j] = 1
		for _, b := range basis {
			v = v.AddScaled(-v.Dot(b), b)
		}
		if n := v.Norm(); n > eps {
			v = v.Scale(1 / n)
			basis = append(basis, v)
			comp = append(comp, v)
		}
	}
	return comp
}

// fullDimFacets enumerates facets of a full-dimensional hull.
func fullDimFacets(verts []geom.Point, eps float64) ([]Facet, error) {
	d := verts[0].Dim()
	switch d {
	case 1:
		lo, hi, err := geom.BoundingBox(verts)
		if err != nil {
			return nil, err
		}
		return []Facet{
			{Normal: geom.NewPoint(1), Offset: hi[0]},
			{Normal: geom.NewPoint(-1), Offset: -lo[0]},
		}, nil
	case 2:
		poly := MonotoneChain(verts, eps)
		return PolygonFacets(poly), nil
	}
	return bruteForceFacets(verts, eps)
}

// facetScratch is the reusable state of one facet enumeration: edge
// buffers, the normal accumulator, the cofactor minor, and an LU scratch for
// its determinants. It is pooled, so concurrent callers each take their own.
type facetScratch struct {
	edges []geom.Point
	n     geom.Point
	minor *geom.Matrix
	ds    geom.DetScratch
}

var facetPool = sync.Pool{New: func() any { return new(facetScratch) }}

func (s *facetScratch) prepare(d int) {
	if len(s.n) == d {
		return
	}
	s.n = geom.Zero(d)
	s.edges = make([]geom.Point, d-1)
	for i := range s.edges {
		s.edges[i] = geom.Zero(d)
	}
	s.minor = geom.NewMatrix(d-1, d-1)
}

// bruteForceFacets enumerates facets of a full-dimensional hull in d >= 3 by
// testing the hyperplane through every d-subset of vertices, visited in
// lexicographic order and deduplicated as they come. This is O(C(k,d) * k) —
// perfectly fine for the tens-of-vertices hulls this library handles, and
// robust against the coplanarity degeneracies that break incremental
// algorithms.
func bruteForceFacets(verts []geom.Point, eps float64) ([]Facet, error) {
	d := verts[0].Dim()
	k := len(verts)
	if k < d+1 {
		return nil, fmt.Errorf("hull: %d vertices cannot span a full-dimensional polytope in %d-D", k, d)
	}
	// The tolerance used to decide "all points on one side" scales with the
	// data magnitude so large coordinates do not break the predicate.
	scale := 1.0
	for _, v := range verts {
		if m := v.NormInf(); m > scale {
			scale = m
		}
	}
	tol := eps * scale * 10

	s := facetPool.Get().(*facetScratch)
	defer facetPool.Put(s)
	var facets []Facet
	idx := make([]int, d)
	for i := range idx {
		idx[i] = i
	}
	for ok := true; ok; ok = nextCombination(idx, k) {
		if f := facetCandidate(verts, idx, s, tol, eps); f.Normal != nil {
			addFacetDedup(&facets, f, tol)
		}
	}
	if len(facets) < d+1 {
		return nil, fmt.Errorf("hull: facet enumeration found only %d facets in %d-D (degenerate input?)", len(facets), d)
	}
	return facets, nil
}

// nextCombination advances idx to the next d-subset of {0..k-1} in
// lexicographic order, reporting false after the last one.
func nextCombination(idx []int, k int) bool {
	d := len(idx)
	i := d - 1
	for i >= 0 && idx[i] == k-d+i {
		i--
	}
	if i < 0 {
		return false
	}
	idx[i]++
	for j := i + 1; j < d; j++ {
		idx[j] = idx[j-1] + 1
	}
	return true
}

// facetCandidate computes the supported facet through verts[idx...], or a
// zero Facet (nil Normal) when the subset is degenerate or not supporting.
// All scratch comes from s; the returned Normal (if any) is freshly
// allocated. The arithmetic mirrors the historical sequential code exactly,
// so results are bitwise-identical.
func facetCandidate(verts []geom.Point, idx []int, s *facetScratch, tol, eps float64) Facet {
	d := verts[0].Dim()
	s.prepare(d)
	base := verts[idx[0]]
	for i := 1; i < d; i++ {
		vi := verts[idx[i]]
		e := s.edges[i-1]
		for c := range e {
			e[c] = vi[c] - base[c]
		}
	}
	n := s.n
	if !generalizedCrossInto(n, s.edges, s.minor, &s.ds, eps) {
		return Facet{}
	}
	l := n.Norm()
	if l <= eps {
		return Facet{}
	}
	inv := 1 / l
	for c := range n {
		n[c] *= inv
	}
	b := n.Dot(base)
	// Orientation and support check in one pass.
	pos, neg := 0, 0
	for _, v := range verts {
		switch e := n.Dot(v) - b; {
		case e > tol:
			pos++
		case e < -tol:
			neg++
		}
		if pos > 0 && neg > 0 {
			return Facet{}
		}
	}
	out := n.Clone()
	if pos > 0 { // flip so all points satisfy n·x <= b
		for c := range out {
			out[c] = -out[c]
		}
		b = -b
	}
	return Facet{Normal: out, Offset: b}
}

// addFacetDedup appends f unless an equivalent facet is already present.
func addFacetDedup(facets *[]Facet, f Facet, tol float64) {
	for _, g := range *facets {
		if math.Abs(g.Offset-f.Offset) <= tol && geom.Equal(g.Normal, f.Normal, tol) {
			return
		}
	}
	*facets = append(*facets, f)
}

// generalizedCross returns a vector orthogonal to the d-1 given vectors in
// R^d via cofactor expansion, or nil when they are linearly dependent.
func generalizedCross(edges []geom.Point, eps float64) geom.Point {
	d := len(edges) + 1
	n := geom.Zero(d)
	var ds geom.DetScratch
	if !generalizedCrossInto(n, edges, geom.NewMatrix(d-1, d-1), &ds, eps) {
		return nil
	}
	return n
}

// generalizedCrossInto is generalizedCross writing the normal into n and
// drawing all scratch (the cofactor minor and its LU buffer) from the
// caller. It reports false when the edges are linearly dependent.
func generalizedCrossInto(n geom.Point, edges []geom.Point, minor *geom.Matrix, ds *geom.DetScratch, eps float64) bool {
	d := len(edges) + 1
	for j := 0; j < d; j++ {
		// Minor: edges matrix with column j removed.
		for r := 0; r < d-1; r++ {
			cc := 0
			for c := 0; c < d; c++ {
				if c == j {
					continue
				}
				minor.Set(r, cc, edges[r][c])
				cc++
			}
		}
		det, err := ds.Det(minor, eps)
		if err != nil {
			return false
		}
		if j%2 == 0 {
			n[j] = det
		} else {
			n[j] = -det
		}
	}
	return n.Norm() > eps
}

// ContainsHRep reports whether p satisfies every facet within tolerance.
func ContainsHRep(facets []Facet, p geom.Point, eps float64) bool {
	for _, f := range facets {
		if f.Eval(p) > eps {
			return false
		}
	}
	return true
}

package hull

import (
	"math"
	"slices"
	"sync"

	"chc/internal/geom"
)

// Facets computes a halfspace representation of the convex hull of verts.
// The input should already be a vertex set (e.g. the output of ConvexHull);
// interior points are harmless but slow the computation down.
//
// Full-dimensional hulls yield one facet per geometric facet (with unit
// outward normals); in d >= 3 they are beneathBeyond's.
// Lower-dimensional hulls yield the facets of the hull within its affine
// subspace, lifted to the ambient space, plus a pair of opposing halfspaces
// per orthogonal direction that pin the subspace.
func Facets(verts []geom.Point, eps float64) ([]Facet, error) {
	if len(verts) == 0 {
		return nil, ErrEmpty
	}
	d := verts[0].Dim()
	var ab *geom.AffineBasis
	if d >= 3 {
		h, err := hullND(verts, eps)
		if err != nil {
			return nil, err
		}
		if h.facets != nil {
			return h.facets, nil
		}
		ab = h.frame
	} else {
		var err error
		if ab, err = geom.NewAffineBasis(verts, eps); err != nil {
			return nil, err
		}
		switch {
		case ab.Dim() == 2:
			return PolygonFacets(MonotoneChain(verts, eps)), nil
		case ab.Dim() == 1 && d == 1:
			lo, hi, err := geom.BoundingBox(verts)
			if err != nil {
				return nil, err
			}
			return []Facet{{Normal: geom.NewPoint(1), Offset: hi[0]}, {Normal: geom.NewPoint(-1), Offset: -lo[0]}}, nil
		}
	}
	// Degenerate: solve in the k-dimensional subspace and lift back.
	var sub []Facet
	if k := ab.Dim(); k > 0 {
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

// facetScratch is the reusable state of one facet enumeration: edge
// buffers, the normal accumulator, the cofactor minor and an LU scratch for
// its determinants in d >= 4, and the enumeration's result (see enumerate).
// It is pooled, so concurrent callers each take their own.
type facetScratch struct {
	edges []geom.Point
	n     geom.Point
	minor *geom.Matrix
	ds    geom.DetScratch

	idx     []int
	e       []float64 // the current plane's n·v − b at every input
	normals []float64 // d to a kept halfspace
	offsets []float64
	sides   []float64 // len(pts) to a kept halfspace: its n·v − b at every input
	hs      []Facet   // views of normals and offsets
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

// DepthHalfspaces returns the closed halfspaces bounded by a hyperplane
// through d affinely independent points of pts (d >= 2) that have at most f
// points strictly outside. When pts spans R^d their intersection is the
// Tukey depth region of depth f+1, ∩ H(C) over the (|pts|−f)-subsets C of
// pts (line 5 of Algorithm CC); with f = 0 they bound H(pts). When both
// sides of a hyperplane qualify, both orientations are returned, in that
// order. A hyperplane is listed once for every d-subset that spans it, and
// the d-subsets are visited in lexicographic order, so the result is a
// deterministic function of pts and each facet of an (|pts|−f)-subset C's
// hull through d points of C is one of these halfspaces, bit for bit.
// "Strictly outside" means beyond a tolerance of 10·eps times the data
// magnitude, so large coordinates do not break the predicate. The normals
// share one backing array.
func DepthHalfspaces(pts []geom.Point, f int, eps float64) []Facet {
	s := facetPool.Get().(*facetScratch)
	defer facetPool.Put(s)
	if s.enumerate(pts, f, eps*DataScale(pts)*10, eps); len(s.offsets) == 0 {
		return nil
	}
	normals := slices.Clone(s.normals)
	d := len(pts[0])
	facets := make([]Facet, len(s.offsets))
	for i, b := range s.offsets {
		facets[i] = Facet{Normal: normals[i*d : (i+1)*d : (i+1)*d], Offset: b}
	}
	return facets
}

// enumerate runs DepthHalfspaces' enumeration at tolerance tol into s: the
// kept halfspaces' normals and offsets, and each one's n·v − b at every
// point of pts, the values its filter compared with tol (for the reverse
// orientation their negations, which are its own values but for the sign of
// a zero). It keeps nothing when pts is too small to span a hyperplane or
// d < 2.
func (s *facetScratch) enumerate(pts []geom.Point, f int, tol, eps float64) {
	s.normals, s.offsets, s.sides = s.normals[:0], s.offsets[:0], s.sides[:0]
	if len(pts) == 0 {
		return
	}
	d := pts[0].Dim()
	k := len(pts)
	if d < 2 || k < d {
		return
	}
	s.prepare(d)
	s.e = slices.Grow(s.e[:0], k)[:k]
	s.idx = slices.Grow(s.idx[:0], d)[:d]
	for i := range s.idx {
		s.idx[i] = i
	}
	for ok := true; ok; ok = nextCombination(s.idx, k) {
		s.addDepthFacets(pts, f, tol, eps)
	}
}

// halfspaces returns enumerate's halfspaces as facets viewing s's slabs.
func (s *facetScratch) halfspaces(d int) []Facet {
	s.hs = s.hs[:0]
	for i, b := range s.offsets {
		s.hs = append(s.hs, Facet{Normal: s.normals[i*d : (i+1)*d : (i+1)*d], Offset: b})
	}
	return s.hs
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

// addDepthFacets adds to s each orientation of the hyperplane through
// pts[s.idx...] that has at most f points beyond tol on its outer side, and
// nothing when the subset does not span a hyperplane.
func (s *facetScratch) addDepthFacets(pts []geom.Point, f int, tol, eps float64) {
	d := pts[0].Dim()
	base := pts[s.idx[0]]
	for i := 1; i < d; i++ {
		vi := pts[s.idx[i]]
		e := s.edges[i-1]
		for c := range e {
			e[c] = vi[c] - base[c]
		}
	}
	n := s.n
	if !generalizedCrossInto(n, s.edges, s.minor, &s.ds, eps) {
		return
	}
	l := n.Norm()
	if l <= eps {
		return
	}
	inv := 1 / l
	for c := range n {
		n[c] *= inv
	}
	b := n.Dot(base)
	// Points beyond the hyperplane on each side, in one pass.
	pos, neg := 0, 0
	for i, v := range pts {
		e := n.Dot(v) - b
		s.e[i] = e
		switch {
		case e > tol:
			pos++
		case e < -tol:
			neg++
		}
		if pos > f && neg > f {
			return
		}
	}
	if pos <= f {
		s.normals = append(s.normals, n...)
		s.offsets = append(s.offsets, b)
		s.sides = append(s.sides, s.e...)
	}
	if neg <= f { // the opposite orientation: -n·x <= -b
		for _, a := range n {
			s.normals = append(s.normals, -a)
		}
		s.offsets = append(s.offsets, -b)
		for _, e := range s.e {
			s.sides = append(s.sides, -e)
		}
	}
}

// generalizedCrossInto writes into n a vector orthogonal to the d-1 given
// vectors in R^d, each coordinate the signed cofactor of the edges matrix
// with that column removed, and reports whether the edges are linearly
// independent (a normal longer than eps). In d <= 3 the cofactors are 1×1
// and 2×2 determinants in closed form (det1, det2); in d >= 4 they come from
// LU (crossLU), drawing the minor and its LU buffer from the caller.
func generalizedCrossInto(n geom.Point, edges []geom.Point, minor *geom.Matrix, ds *geom.DetScratch, eps float64) bool {
	switch len(edges) {
	case 1:
		e := edges[0]
		n[0], n[1] = det1(e[1], eps), -det1(e[0], eps)
	case 2:
		a, b := edges[0], edges[1]
		n[0] = det2(a[1], a[2], b[1], b[2], eps)
		n[1] = -det2(a[0], a[2], b[0], b[2], eps)
		n[2] = det2(a[0], a[1], b[0], b[1], eps)
	default:
		if !crossLU(n, edges, minor, ds, eps) {
			return false
		}
	}
	return n.Norm() > eps
}

// det1 is geom.DetScratch.Det of the 1×1 matrix (a), bit for bit: 0 when
// |a| <= eps, else a.
func det1(a, eps float64) float64 {
	if math.Abs(a) <= eps {
		return 0
	}
	return a
}

// det2 is geom.DetScratch.Det of the 2×2 matrix (a b; c d), bit for bit:
// the same partial pivot (the row with the larger |first entry|, the first
// on a tie), the same rank tests against eps, the same elimination
// d − (c·(1/a))·b, skipped when the multiplier is zero, and the same sign.
func det2(a, b, c, d, eps float64) float64 {
	sign := 1.0
	if math.Abs(c) > math.Abs(a) {
		a, b, c, d = c, d, a, b
		sign = -sign
	}
	if math.Abs(a) <= eps {
		return 0
	}
	inv := 1 / a
	if f := c * inv; f != 0 {
		d -= f * b
	}
	if math.Abs(d) <= eps {
		return 0
	}
	det := sign
	det *= a
	det *= d
	return det
}

// crossLU is generalizedCrossInto's cofactor expansion by LU, for any d:
// each minor is copied into the caller's matrix and factorised in ds. It
// reports false when a determinant fails.
func crossLU(n geom.Point, edges []geom.Point, minor *geom.Matrix, ds *geom.DetScratch, eps float64) bool {
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
	return true
}

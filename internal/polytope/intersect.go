package polytope

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
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
// double-description method (clipHull), so no linear program is solved.
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
	ab, err := geom.NewAffineBasis(pts, eps)
	if err != nil {
		return nil, err
	}
	switch k := ab.Dim(); {
	case k == 0:
		return FromPoint(ab.Origin), nil
	case k < d:
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
	return clipHull(pts, hull.DepthHalfspaces(pts, f, eps), dataScale(pts), eps)
}

// dataScale is the magnitude the clipper's tolerance is relative to, as
// DepthHalfspaces' is: the largest coordinate, at least 1.
func dataScale(pts []geom.Point) float64 {
	scale := 1.0
	for _, v := range pts {
		if m := v.NormInf(); m > scale {
			scale = m
		}
	}
	return scale
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
		scale = max(scale, dataScale(p.verts))
	}
	return clipBox(lo, hi, hs, scale, eps)
}

// clipBox returns {x ∈ [lo, hi] : h.Normal·x <= h.Offset for every h in
// hs} in d >= 2, the normals of unit length, by clipping the box's corners
// (see clipper). lo and hi are overwritten.
func clipBox(lo, hi geom.Point, hs []hull.Facet, scale, eps float64) (*Polytope, error) {
	d, tol := len(lo), 10*eps*scale
	for j := range lo {
		if lo[j] > hi[j] {
			if lo[j]-hi[j] > tol {
				return nil, ErrEmpty
			}
			lo[j] = (lo[j] + hi[j]) / 2
			hi[j] = lo[j]
		}
	}
	// Constraint 2j is x_j >= lo_j and 2j+1 is x_j <= hi_j; corners of a
	// flat box merge.
	c := newClipper(d, 2*d+len(hs), tol)
	for mask := 0; mask < 1<<d; mask++ {
		clear(c.meet)
		for j := range c.pt {
			k := 2 * j
			c.pt[j] = lo[j]
			if mask&(1<<j) != 0 {
				k, c.pt[j] = k+1, hi[j]
			}
			c.meet[k/64] |= 1 << (k % 64)
		}
		c.n = c.push(&c.x, &c.t, c.n)
	}
	return c.intersect(hs, 2*d, eps)
}

// clipHull returns the points of conv(pts) satisfying every halfspace of
// hs, pts spanning R^d, d >= 2, by clipping the hull (see clipper). Its
// facets are the halfspaces of hs with no point of pts beyond tol, and its
// vertices the points of pts on at least one of them: in general position
// those on the boundary are the vertices, and a near-duplicate of a vertex,
// on the same facets within tol, is kept (and not merged) rather than lost.
// Starting from the hull rather than a box, every vertex and every plane
// comes from pts, so a plane through an input point meets it to rounding,
// not to a coincidence of the data with a box face.
func clipHull(pts []geom.Point, hs []hull.Facet, scale, eps float64) (*Polytope, error) {
	c := newClipper(pts[0].Dim(), len(hs), 10*eps*scale)
	var facets []int
	for i, h := range hs {
		if !slices.ContainsFunc(pts, func(p geom.Point) bool { return h.Eval(p) > c.tol }) {
			facets = append(facets, i)
		}
	}
	for _, p := range geom.Dedup(pts, eps) {
		clear(c.meet)
		for _, i := range facets {
			if math.Abs(hs[i].Eval(p)) <= c.tol {
				c.meet[i/64] |= 1 << (i % 64)
			}
		}
		if slices.ContainsFunc(c.meet, func(w uint64) bool { return w != 0 }) {
			c.x, c.t = append(c.x, p...), append(c.t, c.meet...)
			c.n++
		}
	}
	return c.intersect(hs, 0, eps)
}

// clipper runs the double-description method: a vertex list, each vertex
// with the set of constraints tight at it, is clipped by one halfspace after
// another. A halfspace keeps the vertices inside it, marks those on it, and
// cuts one new vertex into every edge from a vertex inside to one outside; a
// halfspace followed by its reverse, as DepthHalfspaces lists a plane with
// at most f points on either side, slices instead and keeps only the
// section. "On" means within tol, 10·eps·scale, DepthFacets' tolerance, and
// a new vertex that close to another merges into it. So every vertex is a
// basic feasible point, extreme by construction, and no linear program is
// solved.
type clipper struct {
	d, words int
	tol      float64
	n        int
	x        []float64 // d coordinates to a vertex
	t        []uint64  // words bits of tight set to a vertex
	nx       []float64 // the next list
	nt       []uint64
	side     []float64 // Normal·x − Offset of each vertex
	in, out  []int
	meet     []uint64 // the tight set of the vertex being made
	pt       []float64
}

func newClipper(d, constraints int, tol float64) *clipper {
	words := (constraints + 63) / 64
	return &clipper{d: d, words: words, tol: tol, meet: make([]uint64, words), pt: make([]float64, d)}
}

// intersect clips the list by hs, whose first tight bit is first, and
// returns what is left, in 2-D as a counter-clockwise polygon without
// collinear vertices (FromCanonical's contract). It returns ErrEmpty when
// nothing is. The one-sided halfspaces clip first and the slices last. A
// slice flattens the list, and two slices whose planes agree within tol
// near the region but not across the hull would otherwise meet on long
// edges far from it, where the second misses the first's section: five
// 2-D inputs, three of them nearly collinear, came back empty.
func (c *clipper) intersect(hs []hull.Facet, first int, eps float64) (*Polytope, error) {
	for _, slicing := range []bool{false, true} {
		for i := 0; i < len(hs); i++ {
			slice := i+1 < len(hs) && reverses(hs[i], hs[i+1])
			if slice == slicing && !c.clip(hs[i], first+i, slice) {
				return nil, ErrEmpty
			}
			if slice {
				i++
			}
		}
	}
	if c.d == 2 {
		return fromHullVerts(hull.MonotoneChain(c.points(), eps)), nil
	}
	return fromHullVerts(geom.Dedup(c.points(), eps)), nil
}

// reverses reports whether g is h with its sides swapped, bit for bit.
func reverses(h, g hull.Facet) bool {
	if g.Offset != -h.Offset {
		return false
	}
	for j, a := range h.Normal {
		if g.Normal[j] != -a {
			return false
		}
	}
	return true
}

// push appends the vertex (c.pt, c.meet) to the list (xs, ts) of n vertices,
// or ORs c.meet into the first vertex within tol of c.pt. It returns the new
// length.
func (c *clipper) push(xs *[]float64, ts *[]uint64, n int) int {
	for w := 0; w < n; w++ {
		if dist((*xs)[w*c.d:(w+1)*c.d], c.pt) <= c.tol {
			for k, b := range c.meet {
				(*ts)[w*c.words+k] |= b
			}
			return n
		}
	}
	*xs = append((*xs)[:n*c.d], c.pt...)
	*ts = append((*ts)[:n*c.words], c.meet...)
	return n + 1
}

func dist(p, q []float64) float64 {
	var sum float64
	for j, a := range p {
		sum += (a - q[j]) * (a - q[j])
	}
	return math.Sqrt(sum)
}

func (c *clipper) vertex(v int) []float64 { return c.x[v*c.d : (v+1)*c.d] }

func (c *clipper) tight(v int) []uint64 { return c.t[v*c.words : (v+1)*c.words] }

// clip intersects the list with h, whose tight bit is hb, or with the plane
// of h when slice is set, whose reverse is constraint hb+1. The next list
// holds the vertices kept inside (none for a slice), then those on h, then
// the new ones. It reports false when nothing is left.
func (c *clipper) clip(h hull.Facet, hb int, slice bool) bool {
	c.side, c.in, c.out = c.side[:0], c.in[:0], c.out[:0]
	for v := 0; v < c.n; v++ {
		s := -h.Offset
		for j, a := range h.Normal {
			s += a * c.x[v*c.d+j]
		}
		c.side = append(c.side, s)
		switch {
		case s < -c.tol:
			c.in = append(c.in, v)
		case s > c.tol:
			c.out = append(c.out, v)
		}
	}
	on := c.n - len(c.in) - len(c.out)
	mark := func(t []uint64) {
		t[hb/64] |= 1 << (hb % 64)
		if slice {
			t[(hb+1)/64] |= 1 << ((hb + 1) % 64)
		}
	}
	if len(c.out) == 0 && (!slice || len(c.in) == 0) {
		for v, s := range c.side {
			if math.Abs(s) <= c.tol {
				mark(c.tight(v))
			}
		}
		return on+len(c.in) > 0
	}
	nn := 0
	keep := func(v int) {
		c.nx = append(c.nx[:nn*c.d], c.vertex(v)...)
		c.nt = append(c.nt[:nn*c.words], c.tight(v)...)
		nn++
	}
	if !slice {
		for _, v := range c.in {
			keep(v)
		}
	}
	for v, s := range c.side {
		if math.Abs(s) <= c.tol {
			keep(v)
			mark(c.nt[(nn-1)*c.words : nn*c.words])
		}
	}
	for _, a := range c.in {
		for _, b := range c.out {
			if !c.adjacent(a, b) {
				continue
			}
			r := c.side[a] / (c.side[a] - c.side[b])
			xa, xb := c.vertex(a), c.vertex(b)
			for j := range c.pt {
				c.pt[j] = xa[j] + r*(xb[j]-xa[j])
			}
			mark(c.meet)
			nn = c.push(&c.nx, &c.nt, nn)
		}
	}
	c.x, c.nx = c.nx, c.x
	c.t, c.nt = c.nt, c.t
	c.n = nn
	return nn > 0
}

// adjacent reports whether vertices a and b span an edge, leaving their
// common tight set in c.meet. The combinatorial test: the smallest face
// holding both is cut out by the constraints tight at both, so they span an
// edge exactly when no third vertex is tight on all of those. That holds
// for flat polytopes too, where a hyperplane and its reverse both bind. An
// edge lies on at least d−1 constraints, which rejects most pairs first.
func (c *clipper) adjacent(a, b int) bool {
	ta, tb := c.tight(a), c.tight(b)
	count := 0
	for k := range c.meet {
		c.meet[k] = ta[k] & tb[k]
		count += bits.OnesCount64(c.meet[k])
	}
	if count < c.d-1 {
		return false
	}
	for w := 0; w < c.n; w++ {
		if w == a || w == b {
			continue
		}
		tw, sub := c.tight(w), true
		for k, m := range c.meet {
			if m&^tw[k] != 0 {
				sub = false
				break
			}
		}
		if sub {
			return false
		}
	}
	return true
}

// points returns the vertex list as points sharing one backing array.
func (c *clipper) points() []geom.Point {
	flat := c.x[:c.n*c.d]
	pts := make([]geom.Point, c.n)
	for v := range pts {
		pts[v] = flat[v*c.d : (v+1)*c.d : (v+1)*c.d]
	}
	return pts
}

package hull

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"chc/internal/geom"
)

// ndHull is hullND's answer: the vertices' indices, ascending, the affine
// frame of the points, and, when that is R^d, the facets and the simplicial
// facets of the surface, d indices each.
type ndHull struct {
	idx       []int
	frame     *geom.AffineBasis
	facets    []Facet
	simplices []int
}

// hullND computes conv(pts) in d >= 3 by beneathBeyond. Flat input is
// solved in its affine hull and mapped back by index, never lifted, so every
// vertex is an input point bit for bit; of points within eps of each other
// the first in input order stands for them all.
func hullND(pts []geom.Point, eps float64) (ndHull, error) {
	tol := 10 * eps * DataScale(pts)
	frame, simplex := spanFrame(pts, eps, tol)
	h := ndHull{frame: frame}
	var err error
	switch frame.Dim() {
	case len(pts[0]):
		h.idx, h.facets, h.simplices, err = beneathBeyond(pts, simplex, tol)
	case 0:
		h.idx = []int{0}
	default:
		proj := make([]geom.Point, len(pts))
		for i, p := range pts {
			proj[i] = frame.Project(p)
		}
		var verts []geom.Point
		verts, err = ConvexHull(proj, eps)
		for _, v := range verts {
			h.idx = append(h.idx, slices.IndexFunc(proj, func(q geom.Point) bool { return geom.Equal(q, v, eps) }))
		}
	}
	if err != nil {
		return h, err
	}
	for k, i := range h.idx {
		h.idx[k] = slices.IndexFunc(pts, func(p geom.Point) bool { return geom.Equal(p, pts[i], eps) })
	}
	slices.Sort(h.idx)
	h.idx = slices.Compact(h.idx)
	return h, nil
}

// DataScale is the magnitude the kernels' tolerance, 10·eps·DataScale, is
// relative to: the largest coordinate, at least 1.
func DataScale(pts []geom.Point) float64 {
	scale := 1.0
	for _, v := range pts {
		if m := v.NormInf(); m > scale {
			scale = m
		}
	}
	return scale
}

// spanFrame picks affinely independent points of pts greedily: from
// pts[0], each next direction goes to the point farthest from the span so
// far. It returns the orthonormal frame and the indices of the points that
// span it, pts[0] first. A direction counts when that distance exceeds eps
// for the first two, which a segment or a polygon needs, and tol after, so
// that beneathBeyond starts from a simplex thicker than its tolerance.
func spanFrame(pts []geom.Point, eps, tol float64) (*geom.AffineBasis, []int) {
	d := len(pts[0])
	res := make([]geom.Point, len(pts))
	for i, p := range pts {
		res[i] = p.Sub(pts[0])
	}
	simplex := []int{0}
	basis := make([]geom.Point, 0, d)
	for len(basis) < d {
		j, n := 0, 0.0
		for i, r := range res {
			if rn := r.Norm(); rn > n {
				j, n = i, rn
			}
		}
		if n <= eps || len(basis) >= 2 && n <= tol {
			break
		}
		q := res[j].Scale(1 / n)
		basis = append(basis, q)
		simplex = append(simplex, j)
		for _, r := range res {
			a := r.Dot(q)
			for c := range r {
				r[c] -= a * q[c]
			}
		}
	}
	return &geom.AffineBasis{Origin: pts[0].Clone(), Basis: basis}, simplex
}

// minPivot, the smallest normal float64, is the least pivot a determinant
// takes: the reciprocal of a subnormal overflows.
const minPivot = 0x1p-1022

// bbSurface is the simplicial surface beneathBeyond builds: facet k has the
// vertices v[k*d:(k+1)*d], ascending, and the plane n[k*d:(k+1)*d]·x = b[k],
// its normal outward and of unit length.
type bbSurface struct {
	d    int
	v    []int
	n, b []float64
}

func (s *bbSurface) dot(k int, p geom.Point) float64 {
	var x float64
	for j, a := range s.n[k*s.d : (k+1)*s.d] {
		x += a * p[j]
	}
	return x
}

// drop removes the facets listed, ascending, in gone.
func (s *bbSurface) drop(gone []int) {
	d, kept := s.d, 0
	for k := range s.b {
		if len(gone) > 0 && gone[0] == k {
			gone = gone[1:]
			continue
		}
		copy(s.v[kept*d:], s.v[k*d:(k+1)*d])
		copy(s.n[kept*d:], s.n[k*d:(k+1)*d])
		s.b[kept] = s.b[k]
		kept++
	}
	s.v, s.n, s.b = s.v[:kept*d], s.n[:kept*d], s.b[:kept]
}

// beneathBeyond computes conv(pts), pts spanning R^d, from the simplex
// pts[simplex], adding the other points far ones first. A point more than
// tol (10·eps·scale, DepthHalfspaces' tolerance) beyond some facets
// replaces them by the cone from it over the ridges only one of them holds;
// other points are inside. A facet is a simplex listed by its vertex
// indices, so adjacency is never decided by a tolerance, and a cone point
// lies more than tol from every ridge it joins.
//
// Then facets within tol of the same surface vertices as another, or of
// some of another's, are one facet of the hull, listed once, and a vertex
// within tol of fewer than d facets, or of some of another's, is not a
// vertex. It returns the vertices' indices, ascending, the facets, each
// offset to its outermost vertex, and the simplicial facets.
func beneathBeyond(pts []geom.Point, simplex []int, tol float64) ([]int, []Facet, []int, error) {
	d := len(pts[0])
	c := geom.Zero(d)
	for _, i := range simplex {
		for j, a := range pts[i] {
			c[j] += a / float64(d+1)
		}
	}
	fs := facetPool.Get().(*facetScratch)
	defer facetPool.Put(fs)
	fs.prepare(d)
	surf := &bbSurface{d: d}
	// add appends the facet through pts[v...], oriented away from c.
	add := func(v []int) error {
		base := pts[v[0]]
		for i, e := range fs.edges {
			for j := range e {
				e[j] = pts[v[i+1]][j] - base[j]
			}
		}
		if !generalizedCrossInto(fs.n, fs.edges, fs.minor, &fs.ds, minPivot) {
			return fmt.Errorf("hull: degenerate facet through points %v", v)
		}
		n := fs.n.Scale(1 / fs.n.Norm())
		if n.Dot(c) > n.Dot(base) {
			n = n.Scale(-1)
		}
		surf.v, surf.n, surf.b = append(surf.v, v...), append(surf.n, n...), append(surf.b, n.Dot(base))
		return nil
	}

	slices.Sort(simplex)
	for k := range simplex {
		if err := add(slices.Delete(slices.Clone(simplex), k, k+1)); err != nil {
			return nil, nil, nil, err
		}
	}
	var order []int
	for i := range pts {
		if !slices.Contains(simplex, i) {
			order = append(order, i)
		}
	}
	slices.SortStableFunc(order, func(i, j int) int { return cmp.Compare(geom.Dist(pts[j], c), geom.Dist(pts[i], c)) })

	for _, p := range order {
		var vis []int
		for k := range surf.b {
			if surf.dot(k, pts[p])-surf.b[k] > tol {
				vis = append(vis, k)
			}
		}
		if len(vis) == 0 {
			continue
		}
		// The cone from p over the ridges only one visible facet holds.
		count := make(map[string]int)
		var ridges [][]int
		for _, k := range vis {
			v := surf.v[k*d : (k+1)*d]
			for j := range v {
				ridge := slices.Delete(slices.Clone(v), j, j+1)
				count[ridgeKey(ridge)]++
				ridges = append(ridges, ridge)
			}
		}
		for _, ridge := range ridges {
			if count[ridgeKey(ridge)] == 1 {
				at, _ := slices.BinarySearch(ridge, p)
				if err := add(slices.Insert(ridge, at, p)); err != nil {
					return nil, nil, nil, err
				}
			}
		}
		surf.drop(vis)
	}

	surface := slices.Clone(surf.v)
	slices.Sort(surface)
	surface = slices.Compact(surface)
	// on[k] holds the surface vertices within tol of facet k, its plane
	// moved out to the outermost of them.
	on := make([]bitset, len(surf.b))
	for k := range on {
		surf.b[k] = math.Inf(-1)
		for _, i := range surface {
			surf.b[k] = max(surf.b[k], surf.dot(k, pts[i]))
		}
		on[k] = make(bitset, (len(surface)+63)/64)
		for j, i := range surface {
			if surf.b[k]-surf.dot(k, pts[i]) <= tol {
				on[k].add(j)
			}
		}
	}
	var listed []int
	for k := range on {
		if !covered(on, k, true) {
			listed = append(listed, k)
		}
	}
	if len(listed) <= d {
		return nil, nil, nil, fmt.Errorf("hull: %d facets cannot bound a polytope in %d-D", len(listed), d)
	}
	facets := make([]Facet, len(listed))
	at := make([]bitset, len(surface)) // at[j] holds the listed facets vertex j is on
	for j := range at {
		at[j] = make(bitset, (len(listed)+63)/64)
	}
	for f, k := range listed {
		facets[f] = Facet{Normal: slices.Clone(geom.Point(surf.n[k*d : (k+1)*d])), Offset: surf.b[k]}
		for j := range at {
			if on[k][j/64]&(1<<(j%64)) != 0 {
				at[j].add(f)
			}
		}
	}
	var idx []int
	for j, i := range surface {
		if at[j].len() >= d && !covered(at, j, false) {
			idx = append(idx, i)
		}
	}
	return idx, facets, surf.v, nil
}

// ridgeKey spells a ridge's vertex indices as a map key.
func ridgeKey(r []int) string {
	b := make([]byte, 0, 4*len(r))
	for _, i := range r {
		b = binary.LittleEndian.AppendUint32(b, uint32(i))
	}
	return string(b)
}

// covered reports whether sets[u] is a strict subset of another set or,
// with ties set, equals one before it.
func covered(sets []bitset, u int, ties bool) bool {
	for w, sw := range sets {
		if w != u && sets[u].within(sw) && (!sw.within(sets[u]) || ties && w < u) {
			return true
		}
	}
	return false
}

// bitset is a set of small non-negative integers.
type bitset []uint64

func (b bitset) add(i int) { b[i/64] |= 1 << (i % 64) }

func (b bitset) len() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// within reports whether c holds every member of b.
func (b bitset) within(c bitset) bool {
	for k, w := range b {
		if w&^c[k] != 0 {
			return false
		}
	}
	return true
}

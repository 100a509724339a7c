package hull

import (
	"math"
	"slices"
	"sort"

	"chc/internal/geom"
)

// cross returns the z-component of (b-a) x (c-a): positive when a,b,c make
// a counter-clockwise turn.
func cross(a, b, c geom.Point) float64 {
	return (b[0]-a[0])*(c[1]-a[1]) - (b[1]-a[1])*(c[0]-a[0])
}

// leftOf reports whether b lies more than eps to the left of the line from a
// to c, so that a, b, c turn counter-clockwise by more than the tolerance.
// The test is a distance, not the area cross(a, b, c): an area threshold
// flattens every corner of a polygon a few 1e-5 across, and the vertex it
// drops can lie a fifth of the polygon's width from the chord that remains.
func leftOf(a, b, c geom.Point, eps float64) bool {
	return cross(a, b, c) > eps*geom.Dist(a, c)
}

// MonotoneChain computes the convex hull of 2-D points using Andrew's
// monotone chain, returning vertices in counter-clockwise order. Collinear
// boundary points are dropped (only true vertices are kept). The input is
// not modified.
func MonotoneChain(pts []geom.Point, eps float64) []geom.Point {
	uniq := geom.Dedup(pts, eps)
	if len(uniq) <= 2 {
		out := make([]geom.Point, len(uniq))
		for i, p := range uniq {
			out[i] = p.Clone()
		}
		return out
	}
	sorted := make([]geom.Point, len(uniq))
	copy(sorted, uniq)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i][0] != sorted[j][0] {
			return sorted[i][0] < sorted[j][0]
		}
		return sorted[i][1] < sorted[j][1]
	})
	n := len(sorted)
	hullPts := make([]geom.Point, 0, 2*n)
	// Lower hull.
	for _, p := range sorted {
		for len(hullPts) >= 2 && !leftOf(hullPts[len(hullPts)-2], hullPts[len(hullPts)-1], p, eps) {
			hullPts = hullPts[:len(hullPts)-1]
		}
		hullPts = append(hullPts, p)
	}
	// Upper hull.
	lower := len(hullPts) + 1
	for i := n - 2; i >= 0; i-- {
		p := sorted[i]
		for len(hullPts) >= lower && !leftOf(hullPts[len(hullPts)-2], hullPts[len(hullPts)-1], p, eps) {
			hullPts = hullPts[:len(hullPts)-1]
		}
		hullPts = append(hullPts, p)
	}
	hullPts = hullPts[:len(hullPts)-1] // last point repeats the first
	// The chains test every vertex against its neighbours but the two they
	// start from, the first and the last point in sort order. Go round the
	// cycle until no vertex lies within eps of its neighbours' chord.
	for again := true; again; {
		again = false
		for i := 0; i < len(hullPts) && len(hullPts) > 2; i++ {
			m := len(hullPts)
			if !leftOf(hullPts[(i+m-1)%m], hullPts[i], hullPts[(i+1)%m], eps) {
				hullPts = slices.Delete(hullPts, i, i+1)
				again = true
			}
		}
	}
	out := make([]geom.Point, len(hullPts))
	for i, p := range hullPts {
		out[i] = p.Clone()
	}
	if len(out) == 0 { // all points collinear within eps collapsed
		return []geom.Point{uniq[0].Clone()}
	}
	return out
}

// PolygonArea returns the signed area of a polygon given in order
// (positive for counter-clockwise).
func PolygonArea(poly []geom.Point) float64 {
	if len(poly) < 3 {
		return 0
	}
	var s float64
	for i := range poly {
		j := (i + 1) % len(poly)
		s += poly[i][0]*poly[j][1] - poly[j][0]*poly[i][1]
	}
	return s / 2
}

// PolygonFacets returns the edge halfplanes of a convex polygon in CCW
// order. For a segment it returns the four halfplanes of its supporting
// line and extent; for a point, four axis-aligned halfplanes pinning it.
func PolygonFacets(poly []geom.Point) []Facet {
	switch len(poly) {
	case 0:
		return nil
	case 1:
		p := poly[0]
		return []Facet{
			{Normal: geom.NewPoint(1, 0), Offset: p[0]},
			{Normal: geom.NewPoint(-1, 0), Offset: -p[0]},
			{Normal: geom.NewPoint(0, 1), Offset: p[1]},
			{Normal: geom.NewPoint(0, -1), Offset: -p[1]},
		}
	case 2:
		a, b := poly[0], poly[1]
		dir := b.Sub(a)
		n := dir.Norm()
		if n == 0 {
			return PolygonFacets(poly[:1])
		}
		u := dir.Scale(1 / n)           // along the segment
		v := geom.NewPoint(-u[1], u[0]) // perpendicular
		return []Facet{
			{Normal: v, Offset: v.Dot(a)},
			{Normal: v.Scale(-1), Offset: -v.Dot(a)},
			{Normal: u, Offset: u.Dot(b)},
			{Normal: u.Scale(-1), Offset: -u.Dot(a)},
		}
	}
	facets := make([]Facet, 0, len(poly))
	for i := range poly {
		a, b := poly[i], poly[(i+1)%len(poly)]
		e := b.Sub(a)
		// Outward normal of a CCW polygon edge is the edge rotated -90°.
		nrm := geom.NewPoint(e[1], -e[0])
		l := nrm.Norm()
		if l == 0 {
			continue
		}
		nrm = nrm.Scale(1 / l)
		facets = append(facets, Facet{Normal: nrm, Offset: nrm.Dot(a)})
	}
	return facets
}

// PointInConvexPolygon reports whether p is inside (or on the boundary of)
// the convex polygon poly given in CCW order.
func PointInConvexPolygon(p geom.Point, poly []geom.Point, eps float64) bool {
	switch len(poly) {
	case 0:
		return false
	case 1:
		return geom.Dist(p, poly[0]) <= eps
	case 2:
		return DistPointSegment(p, poly[0], poly[1]) <= eps
	}
	for _, f := range PolygonFacets(poly) {
		if f.Eval(p) > eps {
			return false
		}
	}
	return true
}

// DistPointSegment returns the Euclidean distance from p to segment ab.
func DistPointSegment(p, a, b geom.Point) float64 {
	ab := b.Sub(a)
	den := ab.Dot(ab)
	if den == 0 {
		return geom.Dist(p, a)
	}
	t := p.Sub(a).Dot(ab) / den
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return geom.Dist(p, a.AddScaled(t, ab))
}

// DistPointPolygon returns the distance from p to a convex polygon (0 when
// p is inside).
func DistPointPolygon(p geom.Point, poly []geom.Point, eps float64) float64 {
	switch len(poly) {
	case 0:
		return math.Inf(1)
	case 1:
		return geom.Dist(p, poly[0])
	case 2:
		return DistPointSegment(p, poly[0], poly[1])
	}
	if PointInConvexPolygon(p, poly, eps) {
		return 0
	}
	best := math.Inf(1)
	for i := range poly {
		if d := DistPointSegment(p, poly[i], poly[(i+1)%len(poly)]); d < best {
			best = d
		}
	}
	return best
}

// MinkowskiSum2D returns the Minkowski sum of two convex polygons (CCW
// order) as a CCW convex polygon, via the classical edge-merge algorithm
// for full polygons and hull-of-sums for degenerate operands.
func MinkowskiSum2D(a, b []geom.Point, eps float64) []geom.Point {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	if len(a) < 3 || len(b) < 3 {
		// Degenerate operand: the sum of small vertex sets is cheap.
		sums := make([]geom.Point, 0, len(a)*len(b))
		for _, p := range a {
			for _, q := range b {
				sums = append(sums, p.Add(q))
			}
		}
		return MonotoneChain(sums, eps)
	}
	ra := rotateToBottom(a)
	rb := rotateToBottom(b)
	na, nb := len(ra), len(rb)
	out := make([]geom.Point, 0, na+nb)
	i, j := 0, 0
	for i < na || j < nb {
		out = append(out, ra[i%na].Add(rb[j%nb]))
		// Edges count as parallel when the sine of their angle is within
		// eps; an area threshold would call every pair of edges of
		// polygons a few 1e-5 across parallel and skip vertices.
		crossV, tol := crossEdges(ra, i, rb, j, eps)
		switch {
		case i >= na:
			j++
		case j >= nb:
			i++
		case crossV > tol:
			i++
		case crossV < -tol:
			j++
		default:
			i++
			j++
		}
	}
	return MonotoneChain(out, eps) // canonicalise orientation and dedup
}

// crossEdges returns cross(edge_i of a, edge_j of b) and eps times the
// product of the edge lengths, the tolerance it is compared against.
func crossEdges(a []geom.Point, i int, b []geom.Point, j int, eps float64) (float64, float64) {
	ea := a[(i+1)%len(a)].Sub(a[i%len(a)])
	eb := b[(j+1)%len(b)].Sub(b[j%len(b)])
	return ea[0]*eb[1] - ea[1]*eb[0], eps * ea.Norm() * eb.Norm()
}

// rotateToBottom rotates the CCW polygon so that its lexicographically
// smallest (y, then x) vertex comes first, as required by the edge-merge
// Minkowski algorithm.
func rotateToBottom(poly []geom.Point) []geom.Point {
	best := 0
	for i, p := range poly {
		q := poly[best]
		if p[1] < q[1] || (p[1] == q[1] && p[0] < q[0]) {
			best = i
		}
	}
	out := make([]geom.Point, len(poly))
	for i := range poly {
		out[i] = poly[(best+i)%len(poly)]
	}
	return out
}

// ScalePolygon returns the polygon scaled by c about the origin.
func ScalePolygon(poly []geom.Point, c float64) []geom.Point {
	out := make([]geom.Point, len(poly))
	for i, p := range poly {
		out[i] = p.Scale(c)
	}
	// Note: scaling by a negative factor in 2-D is a rotation by 180°, which
	// preserves orientation, so no vertex reordering is needed.
	return out
}

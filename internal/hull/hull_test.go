package hull

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"chc/internal/geom"
	"chc/internal/lp"
)

const eps = 1e-9

func pt(coords ...float64) geom.Point { return geom.NewPoint(coords...) }

func TestConvexHull1D(t *testing.T) {
	verts, err := ConvexHull([]geom.Point{pt(3), pt(-1), pt(2), pt(2)}, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(verts) != 2 || verts[0][0] != -1 || verts[1][0] != 3 {
		t.Errorf("verts = %v", verts)
	}
}

func TestConvexHullSinglePoint(t *testing.T) {
	verts, err := ConvexHull([]geom.Point{pt(1, 2), pt(1, 2)}, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(verts) != 1 || !geom.Equal(verts[0], pt(1, 2), eps) {
		t.Errorf("verts = %v", verts)
	}
}

func TestConvexHullErrors(t *testing.T) {
	if _, err := ConvexHull(nil, eps); err == nil {
		t.Error("empty input should error")
	}
	if _, err := ConvexHull([]geom.Point{pt(1), pt(1, 2)}, eps); err == nil {
		t.Error("mixed dims should error")
	}
	if _, err := ConvexHull([]geom.Point{pt(math.NaN())}, eps); err == nil {
		t.Error("NaN should error")
	}
}

func TestMonotoneChainSquare(t *testing.T) {
	pts := []geom.Point{pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1), pt(0.5, 0.5), pt(0.5, 0)}
	hullPts := MonotoneChain(pts, eps)
	if len(hullPts) != 4 {
		t.Fatalf("hull has %d vertices, want 4: %v", len(hullPts), hullPts)
	}
	if a := PolygonArea(hullPts); math.Abs(a-1) > 1e-9 {
		t.Errorf("area = %v, want 1 (CCW)", a)
	}
}

func TestMonotoneChainCollinear(t *testing.T) {
	pts := []geom.Point{pt(0, 0), pt(1, 1), pt(2, 2), pt(3, 3)}
	hullPts := MonotoneChain(pts, eps)
	if len(hullPts) != 2 {
		t.Fatalf("collinear hull has %d vertices, want 2: %v", len(hullPts), hullPts)
	}
}

// TestMonotoneChainDropsFlatEnds: the first point in sort order, (0, 0),
// and the last, (1, 0), each lie 1e-10 beyond the chord of their
// neighbours. The chains start from these two and never test them, so both
// stayed as vertices a vertex-extremeness check rejects.
func TestMonotoneChainDropsFlatEnds(t *testing.T) {
	pts := []geom.Point{pt(0, 0), pt(0, 1), pt(2e-10, -1), pt(1, -1), pt(1, 0), pt(1-2e-10, 1)}
	hullPts := MonotoneChain(pts, eps)
	if len(hullPts) != 4 {
		t.Fatalf("hull has %d vertices, want 4: %v", len(hullPts), hullPts)
	}
	for _, v := range hullPts {
		if v[1] == 0 {
			t.Errorf("%v, within eps of its neighbours' chord, is a vertex", v)
		}
	}
	if a := PolygonArea(hullPts); a <= 0 {
		t.Errorf("area = %v, want positive (CCW)", a)
	}
}

func TestConvexHull2DDropsCollinearBoundary(t *testing.T) {
	pts := []geom.Point{pt(0, 0), pt(2, 0), pt(1, 0), pt(2, 2), pt(0, 2)}
	verts, err := ConvexHull(pts, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(verts) != 4 {
		t.Errorf("hull has %d vertices, want 4 (midpoint of an edge dropped): %v", len(verts), verts)
	}
}

func TestExtremeFilter3D(t *testing.T) {
	// Unit tetrahedron plus its centroid: the centroid must be filtered.
	pts := []geom.Point{
		pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1),
		pt(0.25, 0.25, 0.25),
	}
	verts, err := ConvexHull(pts, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(verts) != 4 {
		t.Fatalf("kept %d vertices, want 4: %v", len(verts), verts)
	}
}

func TestExtremeFilterCube(t *testing.T) {
	// All 8 cube corners are vertices even though faces have 4 coplanar
	// points (the degeneracy that breaks naive incremental hulls).
	var pts []geom.Point
	for _, x := range []float64{0, 1} {
		for _, y := range []float64{0, 1} {
			for _, z := range []float64{0, 1} {
				pts = append(pts, pt(x, y, z))
			}
		}
	}
	pts = append(pts, pt(0.5, 0.5, 0.5), pt(0.5, 0.5, 0)) // interior + face point
	verts, err := ConvexHull(pts, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(verts) != 8 {
		t.Fatalf("kept %d vertices, want 8", len(verts))
	}
}

// TestContains: membership is read off the facets, in the plane and, from
// beneath-beyond, in d = 3.
func TestContains(t *testing.T) {
	for _, c := range []struct {
		verts         []geom.Point
		in, out, edge geom.Point
	}{
		{[]geom.Point{pt(0, 0), pt(4, 0), pt(0, 4)}, pt(1, 1), pt(3, 3), pt(2, 0)},
		{[]geom.Point{pt(0, 0, 0), pt(4, 0, 0), pt(0, 4, 0), pt(0, 0, 4)}, pt(1, 1, 1), pt(2, 2, 2), pt(2, 0, 0)},
	} {
		facets, err := Facets(c.verts, eps)
		if err != nil {
			t.Fatal(err)
		}
		if !ContainsHRep(facets, c.in, eps) {
			t.Errorf("interior point %v reported outside", c.in)
		}
		if ContainsHRep(facets, c.out, eps) {
			t.Errorf("exterior point %v reported inside", c.out)
		}
		if !ContainsHRep(facets, c.edge, eps) {
			t.Errorf("boundary point %v reported outside", c.edge)
		}
	}
}

// TestDepthFacets: with f = 0 the depth halfspaces of a square are its four
// edges. With f = 1 the two diagonals, each with one corner strictly on
// either side, qualify in both orientations. Their intersection is the
// centre, the one point every closed halfplane of depth 2 holds.
func TestDepthFacets(t *testing.T) {
	square := []geom.Point{pt(0, 0), pt(2, 0), pt(2, 2), pt(0, 2)}
	if got := DepthHalfspaces(square, 0, eps); len(got) != 4 {
		t.Errorf("f=0: %d halfplanes, want the 4 edges: %v", len(got), got)
	}
	got := DepthHalfspaces(square, 1, eps)
	if len(got) != 8 {
		t.Fatalf("f=1: %d halfplanes, want 4 edges + 2 diagonals x 2 orientations: %v", len(got), got)
	}
	if !ContainsHRep(got, pt(1, 1), eps) {
		t.Error("centre violates a depth halfplane")
	}
	for _, q := range []geom.Point{pt(1+1e-3, 1), pt(1, 1-1e-3)} {
		if ContainsHRep(got, q, eps) {
			t.Errorf("%v off the centre satisfies every depth halfplane", q)
		}
	}
	// Repeated points span no line and are skipped.
	if got := DepthHalfspaces([]geom.Point{pt(1, 1), pt(1, 1)}, 1, eps); len(got) != 0 {
		t.Errorf("coincident pair gave halfplanes %v", got)
	}
}

func TestPointInConvexPolygon(t *testing.T) {
	tri := []geom.Point{pt(0, 0), pt(4, 0), pt(0, 4)}
	if !PointInConvexPolygon(pt(1, 1), tri, eps) {
		t.Error("interior point reported outside")
	}
	if PointInConvexPolygon(pt(5, 5), tri, eps) {
		t.Error("exterior point reported inside")
	}
	if !PointInConvexPolygon(pt(0, 0), []geom.Point{pt(0, 0)}, eps) {
		t.Error("point-polygon containment failed")
	}
	if !PointInConvexPolygon(pt(1, 0), []geom.Point{pt(0, 0), pt(2, 0)}, eps) {
		t.Error("segment containment failed")
	}
}

func TestDistPointSegment(t *testing.T) {
	tests := []struct {
		p, a, b geom.Point
		want    float64
	}{
		{pt(0, 1), pt(-1, 0), pt(1, 0), 1},             // perpendicular foot inside
		{pt(3, 4), pt(-1, 0), pt(1, 0), math.Sqrt(20)}, // beyond endpoint b
		{pt(0, 0), pt(0, 0), pt(0, 0), 0},              // degenerate segment
		{pt(0.5, 0), pt(0, 0), pt(1, 0), 0},            // on the segment
	}
	for i, tt := range tests {
		if got := DistPointSegment(tt.p, tt.a, tt.b); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("case %d: dist = %v, want %v", i, got, tt.want)
		}
	}
}

func TestMinkowskiSum2D(t *testing.T) {
	// Square [0,1]^2 + square [0,1]^2 = square [0,2]^2.
	sq := []geom.Point{pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)}
	sum := MinkowskiSum2D(sq, sq, eps)
	if a := math.Abs(PolygonArea(sum)); math.Abs(a-4) > 1e-9 {
		t.Errorf("sum area = %v, want 4 (%v)", a, sum)
	}
	// Triangle + point = translated triangle.
	tri := []geom.Point{pt(0, 0), pt(1, 0), pt(0, 1)}
	shift := []geom.Point{pt(5, 5)}
	got := MinkowskiSum2D(tri, shift, eps)
	want := MonotoneChain([]geom.Point{pt(5, 5), pt(6, 5), pt(5, 6)}, eps)
	if len(got) != 3 {
		t.Fatalf("translated triangle has %d vertices: %v", len(got), got)
	}
	for i := range got {
		if !geom.Equal(got[i], want[i], 1e-9) {
			t.Errorf("vertex %d = %v, want %v", i, got[i], want[i])
		}
	}
	// Square + rotated square (octagon).
	rot := []geom.Point{pt(0.5, 0), pt(1, 0.5), pt(0.5, 1), pt(0, 0.5)}
	oct := MinkowskiSum2D(sq, rot, eps)
	if len(oct) != 8 {
		t.Errorf("octagon has %d vertices: %v", len(oct), oct)
	}
}

// TestHull2DSmallPolygons: the 2-D kernel's tolerances are distances, so a
// polygon a few 1e-5 across keeps its shape. The area cross(a, b, c) ≤ eps
// used to flatten its corners in MonotoneChain, and to call every pair of
// its edges parallel in MinkowskiSum2D — which then skipped vertices — so L
// lost a vertex of a shrinking state by a fifth of the state's width.
func TestHull2DSmallPolygons(t *testing.T) {
	for _, s := range []float64{1e-3, 1e-5} {
		sq := ScalePolygon([]geom.Point{pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)}, s)
		rot := ScalePolygon([]geom.Point{pt(0.5, 0), pt(1, 0.5), pt(0.5, 1), pt(0, 0.5)}, s)
		if got := MonotoneChain(rot, eps); len(got) != 4 {
			t.Errorf("scale %g: hull of a square has %d vertices: %v", s, len(got), got)
		}
		oct := MinkowskiSum2D(sq, rot, eps)
		if len(oct) != 8 {
			t.Errorf("scale %g: square + rotated square has %d vertices, want 8: %v", s, len(oct), oct)
		}
		if a := PolygonArea(oct); math.Abs(a-3.5*s*s) > 1e-9*s*s {
			t.Errorf("scale %g: octagon area %g, want %g", s, a, 3.5*s*s)
		}
	}
}

func TestScalePolygon(t *testing.T) {
	sq := []geom.Point{pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)}
	half := ScalePolygon(sq, 0.5)
	if a := PolygonArea(half); math.Abs(a-0.25) > 1e-9 {
		t.Errorf("scaled area = %v, want 0.25", a)
	}
	neg := ScalePolygon(sq, -1)
	if a := PolygonArea(neg); math.Abs(a-1) > 1e-9 {
		t.Errorf("negated polygon area = %v, want 1 (still CCW)", a)
	}
}

func TestFacets2D(t *testing.T) {
	sq := []geom.Point{pt(0, 0), pt(2, 0), pt(2, 2), pt(0, 2)}
	facets, err := Facets(sq, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(facets) != 4 {
		t.Fatalf("square has %d facets, want 4", len(facets))
	}
	if !ContainsHRep(facets, pt(1, 1), eps) {
		t.Error("centre should satisfy all facets")
	}
	if ContainsHRep(facets, pt(3, 1), eps) {
		t.Error("outside point should violate a facet")
	}
}

func TestFacets3DCube(t *testing.T) {
	var pts []geom.Point
	for _, x := range []float64{0, 1} {
		for _, y := range []float64{0, 1} {
			for _, z := range []float64{0, 1} {
				pts = append(pts, pt(x, y, z))
			}
		}
	}
	facets, err := Facets(pts, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(facets) != 6 {
		t.Fatalf("cube has %d facets, want 6", len(facets))
	}
	if !ContainsHRep(facets, pt(0.5, 0.5, 0.5), eps) {
		t.Error("cube centre outside")
	}
	if ContainsHRep(facets, pt(1.5, 0.5, 0.5), eps) {
		t.Error("outside point inside")
	}
}

func TestFacets3DTetrahedron(t *testing.T) {
	tet := []geom.Point{pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1)}
	facets, err := Facets(tet, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(facets) != 4 {
		t.Fatalf("tetrahedron has %d facets, want 4", len(facets))
	}
	for _, v := range tet {
		if !ContainsHRep(facets, v, 1e-6) {
			t.Errorf("vertex %v violates its own hull", v)
		}
	}
}

func TestFacetsDegenerateSegmentIn3D(t *testing.T) {
	seg := []geom.Point{pt(0, 0, 0), pt(1, 1, 1)}
	facets, err := Facets(seg, eps)
	if err != nil {
		t.Fatal(err)
	}
	// On-segment points satisfy the facets, off-subspace ones don't.
	if !ContainsHRep(facets, pt(0.5, 0.5, 0.5), 1e-6) {
		t.Error("midpoint should be inside")
	}
	if ContainsHRep(facets, pt(0.5, 0.5, 0.9), 1e-6) {
		t.Error("off-line point should be outside")
	}
	if ContainsHRep(facets, pt(2, 2, 2), 1e-6) {
		t.Error("beyond-endpoint point should be outside")
	}
}

func TestFacetsSinglePoint3D(t *testing.T) {
	facets, err := Facets([]geom.Point{pt(1, 2, 3)}, eps)
	if err != nil {
		t.Fatal(err)
	}
	if !ContainsHRep(facets, pt(1, 2, 3), 1e-6) {
		t.Error("point should contain itself")
	}
	if ContainsHRep(facets, pt(1, 2, 3.01), 1e-6) {
		t.Error("nearby point should be outside")
	}
}

func TestVolume(t *testing.T) {
	tests := []struct {
		name string
		pts  []geom.Point
		want float64
	}{
		{"interval", []geom.Point{pt(1), pt(4)}, 3},
		{"triangle", []geom.Point{pt(0, 0), pt(2, 0), pt(0, 2)}, 2},
		{"unit cube", []geom.Point{
			pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1),
			pt(1, 1, 0), pt(1, 0, 1), pt(0, 1, 1), pt(1, 1, 1)}, 1},
		{"tetrahedron", []geom.Point{pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1)}, 1.0 / 6},
		{"degenerate triangle in 3d", []geom.Point{pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0)}, 0},
		{"single point", []geom.Point{pt(5, 5)}, 0},
	}
	for _, tt := range tests {
		got, err := Volume(tt.pts, eps)
		if err != nil {
			t.Fatalf("%s: %v", tt.name, err)
		}
		if math.Abs(got-tt.want) > 1e-6 {
			t.Errorf("%s: Volume = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestDiameter(t *testing.T) {
	if d := Diameter([]geom.Point{pt(0, 0), pt(3, 4), pt(1, 1)}); math.Abs(d-5) > 1e-9 {
		t.Errorf("Diameter = %v, want 5", d)
	}
	if d := Diameter([]geom.Point{pt(0, 0)}); d != 0 {
		t.Errorf("Diameter of single point = %v", d)
	}
}

// Property: every input point is contained in its own hull (2-D).
func TestHullContainsInputs2D(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = pt(rng.Float64()*20-10, rng.Float64()*20-10)
		}
		h := MonotoneChain(pts, eps)
		for _, p := range pts {
			if !PointInConvexPolygon(p, h, 1e-6) {
				return false
			}
		}
		// CCW orientation.
		return PolygonArea(h) >= -eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: hull of a hull is idempotent (2-D vertex sets match).
func TestHullIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(15)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = pt(rng.Float64()*10, rng.Float64()*10)
		}
		h1 := MonotoneChain(pts, eps)
		h2 := MonotoneChain(h1, eps)
		return len(h1) == len(h2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: beneath-beyond's 3-D facets agree with the LP containment
// test, the reference oracle.
func TestFacetsAgreeWithLP3D(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(8)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = pt(rng.Float64()*4-2, rng.Float64()*4-2, rng.Float64()*4-2)
		}
		verts, err := ConvexHull(pts, eps)
		if err != nil {
			return false
		}
		facets, err := Facets(verts, eps)
		if err != nil {
			return false
		}
		flat := make([][]float64, len(verts))
		for i, v := range verts {
			flat[i] = v
		}
		for trial := 0; trial < 10; trial++ {
			q := pt(rng.Float64()*5-2.5, rng.Float64()*5-2.5, rng.Float64()*5-2.5)
			_, err := lp.ConvexWeights(flat, q, eps)
			if err != nil && !errors.Is(err, lp.ErrInfeasible) {
				return false
			}
			inLP := err == nil
			inH := ContainsHRep(facets, q, 1e-6)
			// Allow disagreement only within a thin boundary band.
			if inLP != inH {
				if distToBoundaryIsTiny(facets, q) {
					continue
				}
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func distToBoundaryIsTiny(facets []Facet, q geom.Point) bool {
	for _, f := range facets {
		if math.Abs(f.Eval(q)) < 1e-4 {
			return true
		}
	}
	return false
}

// Property: Minkowski sum area >= sum of individual areas (2-D, convex).
func TestMinkowskiAreaMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() []geom.Point {
			n := 3 + rng.Intn(8)
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = pt(rng.Float64()*6-3, rng.Float64()*6-3)
			}
			return MonotoneChain(pts, eps)
		}
		a, b := mk(), mk()
		if len(a) < 3 || len(b) < 3 {
			return true
		}
		sum := MinkowskiSum2D(a, b, eps)
		sa, sb := math.Abs(PolygonArea(a)), math.Abs(PolygonArea(b))
		ss := math.Abs(PolygonArea(sum))
		return ss >= sa+sb-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
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

package hull_test

// Polygon clipping in the plane runs in polytope.Intersect, which clips the
// operands' common box by their facets, the same kernel as in d >= 3. These
// tests hold that kernel to the polygon-clip properties: a half-square cut,
// lower-dimensional operands, a cut within the tolerance of a vertex, a
// corner touch and a sliver.

import (
	"errors"
	"math"
	"testing"

	"chc/internal/geom"
	"chc/internal/polytope"
)

const eps = 1e-9

func pt(coords ...float64) geom.Point { return geom.NewPoint(coords...) }

func poly(t *testing.T, pts ...geom.Point) *polytope.Polytope {
	t.Helper()
	p, err := polytope.New(pts, eps)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// rect returns the axis-aligned rectangle [x0, x1] × [y0, y1].
func rect(t *testing.T, x0, y0, x1, y1 float64) *polytope.Polytope {
	return poly(t, pt(x0, y0), pt(x1, y0), pt(x1, y1), pt(x0, y1))
}

func intersect(t *testing.T, a, b *polytope.Polytope) (*polytope.Polytope, error) {
	t.Helper()
	return polytope.Intersect([]*polytope.Polytope{a, b}, eps)
}

func area(t *testing.T, p *polytope.Polytope) float64 {
	t.Helper()
	a, err := p.Volume(eps)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestClipPolygonHalfplane(t *testing.T) {
	square := rect(t, 0, 0, 2, 2)
	halfX1 := rect(t, -1, -1, 1, 3) // x <= 1 over the square's extent
	got, err := intersect(t, square, halfX1)
	if err != nil {
		t.Fatal(err)
	}
	if a := area(t, got); math.Abs(a-2) > 1e-9 {
		t.Errorf("clipped area = %v, want 2", a)
	}
	// Clip everything away: x <= -1.
	if got, err := intersect(t, square, rect(t, -3, -1, -1, 3)); !errors.Is(err, polytope.ErrEmpty) {
		t.Errorf("fully clipped polygon = %v (%v), want ErrEmpty", got, err)
	}
	// Point and segment cases.
	got, err = intersect(t, polytope.FromPoint(pt(0, 0)), halfX1)
	if err != nil || got.NumVertices() != 1 || !geom.Equal(got.Vertices()[0], pt(0, 0), eps) {
		t.Errorf("inside point should survive: %v (%v)", got, err)
	}
	got, err = intersect(t, poly(t, pt(0, 0), pt(2, 0)), halfX1)
	if err != nil || got.NumVertices() != 2 {
		t.Fatalf("segment clip = %v (%v)", got, err)
	}
	for _, v := range got.Vertices() {
		if geom.Dist(v, pt(0, 0)) > eps && geom.Dist(v, pt(1, 0)) > eps {
			t.Errorf("segment clip vertex %v is neither (0, 0) nor (1, 0)", v)
		}
	}
}

// TestClipPolygonHalfplaneStaysOnEdge: a vertex counts as inside up to eps
// beyond the cut line x = 1. When one endpoint of an edge is just outside
// and the other inside that band, the cut must not carry a vertex off the
// edge it clips (an unclamped crossing once put one a third of the polygon's
// height beyond it).
func TestClipPolygonHalfplaneStaysOnEdge(t *testing.T) {
	quad := []geom.Point{pt(0, 0), pt(1+2*eps, 0), pt(1+eps/2, 1), pt(0, 1)}
	halfX1 := rect(t, -1, -1, 1, 3)
	for _, p := range []*polytope.Polytope{
		poly(t, quad...),      // x <= 1
		poly(t, quad[1:3]...), // the edge alone
	} {
		clipped, err := intersect(t, p, halfX1)
		if err != nil {
			t.Fatalf("clip removed the inside part: %v", err)
		}
		for _, v := range clipped.Vertices() {
			if v[1] < -eps || v[1] > 1+eps {
				t.Errorf("clipped vertex %v lies beyond the clipped edge", v)
			}
		}
	}
}

func TestIntersectConvexPolygons(t *testing.T) {
	a := rect(t, 0, 0, 2, 2)
	got, err := intersect(t, a, rect(t, 1, 1, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	if ar := area(t, got); math.Abs(ar-1) > 1e-6 {
		t.Errorf("intersection area = %v, want 1 (%v)", ar, got)
	}
	// Disjoint.
	if got, err := intersect(t, a, poly(t, pt(10, 10), pt(11, 10), pt(10, 11))); !errors.Is(err, polytope.ErrEmpty) {
		t.Errorf("disjoint intersection = %v (%v), want ErrEmpty", got, err)
	}
	// Touching at a point.
	got, err = intersect(t, a, poly(t, pt(2, 2), pt(3, 2), pt(2, 3)))
	if err != nil {
		t.Fatalf("touching intersection should be non-empty: %v", err)
	}
	for _, v := range got.Vertices() {
		if geom.Dist(v, pt(2, 2)) > 1e-8 {
			t.Errorf("touching intersection vertex %v is not the corner (2, 2)", v)
		}
	}
}

func TestTortureIntersectSlivers(t *testing.T) {
	// Two long thin triangles crossing at a shallow angle: the
	// intersection is a sliver quadrilateral; clipping must not blow up.
	a := poly(t, pt(0, 0), pt(100, 0.01), pt(100, -0.01))
	b := poly(t, pt(100, 0), pt(0, 0.01), pt(0, -0.01))
	got, err := intersect(t, a, b)
	if err != nil {
		t.Fatalf("sliver intersection should be non-empty: %v", err)
	}
	for _, p := range got.Vertices() {
		if !p.IsFinite() {
			t.Fatalf("non-finite vertex %v", p)
		}
		if math.Abs(p[1]) > 0.02 || p[0] < -1 || p[0] > 101 {
			t.Errorf("intersection vertex %v escapes the slivers", p)
		}
	}
}

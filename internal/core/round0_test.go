package core

import (
	"errors"
	"math/rand"
	"testing"

	"chc/internal/geom"
	"chc/internal/hull"
	"chc/internal/polytope"
)

// TestInitialPolytopeInsideSubsetHulls: the 1 892nd view of 14 uniform
// inputs from seed 1614 at n=16, f=2, d=2. Clipping the subset hulls one
// after another put a vertex 0.28 outside a 12-subset hull: at one clip the
// crossing of an edge whose ends straddled the tolerance band was
// extrapolated past the edge. h_i[0] must lie in every subset hull.
func TestInitialPolytopeInsideSubsetHulls(t *testing.T) {
	rng := rand.New(rand.NewSource(1614))
	xi := make([]geom.Point, 14)
	for s := 0; s < 1892; s++ {
		for k := range xi {
			xi[k] = pt(rng.Float64()*10, rng.Float64()*10)
		}
	}
	h, err := InitialPolytope(baseParams(16, 2, 2), xi)
	if err != nil {
		t.Fatal(err)
	}
	for a := range xi {
		for b := a + 1; b < len(xi); b++ {
			sub := make([]geom.Point, 0, len(xi)-2)
			for k, x := range xi {
				if k != a && k != b {
					sub = append(sub, x)
				}
			}
			p, err := polytope.New(sub, geom.DefaultEps)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range h.Vertices() {
				if d, err := p.Distance(v, geom.DefaultEps); err != nil || d > 1e-9 {
					t.Errorf("vertex %v of h_i[0] lies %g outside the hull without inputs %d, %d (%v)", v, d, a, b, err)
				}
			}
		}
	}
}

// TestRound0NeverEmptyAtBound2D: at n=5, f=1, d=2, the resilience bound and
// chcd's default, Lemma 2 makes every four-input view's round-0 region
// non-empty. Clipping subset hulls one after another came back empty on
// some uniform views (view 762 of this sweep; TestIntersectSharpCorners has
// the cause). On 100 000 views, h_i[0] is never empty and no vertex lies
// more than 1e-9·scale outside a subset triangle.
func TestRound0NeverEmptyAtBound2D(t *testing.T) {
	const views, tol = 100_000, 1e-9 * 10
	params := baseParams(5, 1, 2)
	rng := rand.New(rand.NewSource(5))
	xi := make([]geom.Point, 4)
	tri := make([]geom.Point, 3)
	for s := 0; s < views; s++ {
		for k := range xi {
			xi[k] = pt(rng.Float64()*10, rng.Float64()*10)
		}
		h, err := InitialPolytope(params, xi)
		if errors.Is(err, polytope.ErrEmpty) {
			t.Fatalf("view %d %v: round 0 is empty at the resilience bound", s, xi)
		}
		if err != nil {
			t.Fatal(err)
		}
		verts := h.Vertices()
		for skip := range xi {
			copy(tri, xi[:skip])
			copy(tri[skip:], xi[skip+1:])
			ccw := hull.MonotoneChain(tri, geom.DefaultEps)
			for _, v := range verts {
				if !hull.PointInConvexPolygon(v, ccw, tol) {
					t.Fatalf("view %d %v: vertex %v of h_i[0] lies outside the triangle without input %d", s, xi, v, skip)
				}
			}
		}
	}
}

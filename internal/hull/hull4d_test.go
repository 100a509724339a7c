package hull

import (
	"math"
	"testing"

	"chc/internal/geom"
)

// hypercube4D returns the 16 corners of [0,1]^4.
func hypercube4D() []geom.Point {
	var pts []geom.Point
	for mask := 0; mask < 16; mask++ {
		p := make(geom.Point, 4)
		for bit := 0; bit < 4; bit++ {
			if mask&(1<<bit) != 0 {
				p[bit] = 1
			}
		}
		pts = append(pts, p)
	}
	return pts
}

// crossPolytope4D returns the 8 vertices {±e_i} of the 4-D cross-polytope.
func crossPolytope4D() []geom.Point {
	var pts []geom.Point
	for i := 0; i < 4; i++ {
		for _, s := range []float64{1, -1} {
			p := make(geom.Point, 4)
			p[i] = s
			pts = append(pts, p)
		}
	}
	return pts
}

func TestHypercube4DVertices(t *testing.T) {
	pts := hypercube4D()
	center := geom.NewPoint(0.5, 0.5, 0.5, 0.5)
	verts, err := ConvexHull(append(pts, center), eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(verts) != 16 {
		t.Fatalf("kept %d vertices, want 16", len(verts))
	}
}

func TestHypercube4DFacets(t *testing.T) {
	facets, err := Facets(hypercube4D(), eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(facets) != 8 {
		t.Fatalf("4-cube has %d facets, want 8", len(facets))
	}
	if !ContainsHRep(facets, geom.NewPoint(0.5, 0.5, 0.5, 0.5), 1e-6) {
		t.Error("centre outside the 4-cube")
	}
	if ContainsHRep(facets, geom.NewPoint(1.5, 0.5, 0.5, 0.5), 1e-6) {
		t.Error("external point inside the 4-cube")
	}
}

func TestHypercube4DVolume(t *testing.T) {
	vol, err := Volume(hypercube4D(), eps)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vol-1) > 1e-6 {
		t.Errorf("4-cube volume = %v, want 1", vol)
	}
}

func TestCrossPolytope4D(t *testing.T) {
	pts := crossPolytope4D()
	facets, err := Facets(pts, eps)
	if err != nil {
		t.Fatal(err)
	}
	// The 4-D cross-polytope has 2^4 = 16 facets.
	if len(facets) != 16 {
		t.Fatalf("cross-polytope has %d facets, want 16", len(facets))
	}
	// Volume of the d-dimensional cross-polytope is 2^d / d! = 16/24.
	vol, err := Volume(pts, eps)
	if err != nil {
		t.Fatal(err)
	}
	if want := 16.0 / 24.0; math.Abs(vol-want) > 1e-6 {
		t.Errorf("cross-polytope volume = %v, want %v", vol, want)
	}
}

func TestSimplex4DVolume(t *testing.T) {
	// Unit 4-simplex: volume 1/4! = 1/24.
	pts := []geom.Point{
		geom.NewPoint(0, 0, 0, 0),
		geom.NewPoint(1, 0, 0, 0),
		geom.NewPoint(0, 1, 0, 0),
		geom.NewPoint(0, 0, 1, 0),
		geom.NewPoint(0, 0, 0, 1),
	}
	vol, err := Volume(pts, eps)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vol-1.0/24) > 1e-9 {
		t.Errorf("4-simplex volume = %v, want 1/24", vol)
	}
	facets, err := Facets(pts, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(facets) != 5 {
		t.Errorf("4-simplex has %d facets, want 5", len(facets))
	}
}

func TestDegenerate3DFlatIn4D(t *testing.T) {
	// A tetrahedron embedded in a 3-flat of R^4: zero 4-volume, facet
	// representation pins the subspace.
	pts := []geom.Point{
		geom.NewPoint(0, 0, 0, 1),
		geom.NewPoint(1, 0, 0, 1),
		geom.NewPoint(0, 1, 0, 1),
		geom.NewPoint(0, 0, 1, 1),
	}
	vol, err := Volume(pts, eps)
	if err != nil || vol != 0 {
		t.Errorf("flat volume = %v, %v, want 0", vol, err)
	}
	facets, err := Facets(pts, eps)
	if err != nil {
		t.Fatal(err)
	}
	if !ContainsHRep(facets, geom.NewPoint(0.25, 0.25, 0.25, 1), 1e-6) {
		t.Error("interior point of the flat should be inside")
	}
	if ContainsHRep(facets, geom.NewPoint(0.25, 0.25, 0.25, 1.01), 1e-6) {
		t.Error("off-flat point should be outside")
	}
}

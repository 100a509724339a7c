package hull

import (
	"math"
	"math/rand"
	"testing"

	"chc/internal/geom"
)

// Torture tests: near-degenerate inputs that break naive floating-point
// geometry — tight clusters, collinear runs with jitter below the
// tolerance, duplicated points, tiny simplices far from the origin.

func TestTortureCollinearWithJitter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var pts []geom.Point
	for i := 0; i < 30; i++ {
		x := float64(i) / 3
		pts = append(pts, pt(x, 2*x+rng.Float64()*1e-12)) // jitter << eps
	}
	verts, err := ConvexHull(pts, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(verts) != 2 {
		t.Errorf("sub-tolerance jitter should collapse to a segment, got %d vertices", len(verts))
	}
}

func TestTortureTightCluster(t *testing.T) {
	// A cluster of diameter 1e-12 centred far from the origin must reduce
	// to (essentially) a single point.
	rng := rand.New(rand.NewSource(2))
	var pts []geom.Point
	for i := 0; i < 20; i++ {
		pts = append(pts, pt(1e6+rng.Float64()*1e-12, -1e6+rng.Float64()*1e-12))
	}
	verts, err := ConvexHull(pts, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if len(verts) != 1 {
		t.Errorf("tight cluster kept %d vertices, want 1", len(verts))
	}
}

func TestTortureMassiveDuplication(t *testing.T) {
	base := []geom.Point{pt(0, 0), pt(4, 0), pt(0, 4)}
	var pts []geom.Point
	for i := 0; i < 50; i++ {
		pts = append(pts, base[i%3].Clone())
	}
	verts, err := ConvexHull(pts, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(verts) != 3 {
		t.Errorf("duplicated triangle has %d vertices, want 3", len(verts))
	}
	vol, err := Volume(verts, eps)
	if err != nil || math.Abs(vol-8) > 1e-9 {
		t.Errorf("area = %v, want 8", vol)
	}
}

func TestTortureTinySimplexFarAway(t *testing.T) {
	// A tetrahedron of edge ~1e-3 at offset 1e4: relative precision matters.
	const off, s = 1e4, 1e-3
	pts := []geom.Point{
		pt(off, off, off),
		pt(off+s, off, off),
		pt(off, off+s, off),
		pt(off, off, off+s),
	}
	facets, err := Facets(pts, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(facets) != 4 {
		t.Fatalf("tiny far tetrahedron has %d facets, want 4", len(facets))
	}
	center := pt(off+s/4, off+s/4, off+s/4)
	if !ContainsHRep(facets, center, 1e-5) {
		t.Error("centroid outside the tiny tetrahedron")
	}
	vol, err := Volume(pts, eps)
	if err != nil {
		t.Fatal(err)
	}
	want := s * s * s / 6
	if math.Abs(vol-want) > want*1e-3 {
		t.Errorf("volume = %v, want %v", vol, want)
	}
}

func TestTortureMixedScales2D(t *testing.T) {
	// Hull of points spanning six orders of magnitude.
	pts := []geom.Point{
		pt(0, 0), pt(1e-6, 1e-6), pt(1e3, 0), pt(0, 1e3), pt(500, 500),
		pt(1e3, 1e3),
	}
	verts, err := ConvexHull(pts, eps)
	if err != nil {
		t.Fatal(err)
	}
	// Extremes must survive, interior points must not.
	mustHave := []geom.Point{pt(0, 0), pt(1e3, 0), pt(0, 1e3), pt(1e3, 1e3)}
	for _, m := range mustHave {
		found := false
		for _, v := range verts {
			if geom.Equal(v, m, 1e-6) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("extreme point %v missing from hull", m)
		}
	}
	for _, v := range verts {
		if geom.Equal(v, pt(500, 500), 1e-6) {
			t.Error("interior point survived")
		}
	}
}

func TestTortureMinkowskiNeedle(t *testing.T) {
	// Needle polygon + square: the sum must contain translates of the
	// square along the needle.
	needle := MonotoneChain([]geom.Point{pt(0, 0), pt(100, 1e-9), pt(50, 1e-10)}, 1e-15)
	square := []geom.Point{pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)}
	sum := MinkowskiSum2D(needle, square, eps)
	if len(sum) < 4 {
		t.Fatalf("needle+square has %d vertices", len(sum))
	}
	for _, q := range []geom.Point{pt(0.5, 0.5), pt(100.5, 0.5), pt(50, 0.99)} {
		if !PointInConvexPolygon(q, sum, 1e-6) {
			t.Errorf("point %v missing from needle+square sum", q)
		}
	}
}

// Property: hull area is invariant under rotation (exercises predicate
// robustness at many angles, including near-axis-aligned ones).
func TestTortureRotationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := make([]geom.Point, 12)
	for i := range base {
		base[i] = pt(rng.Float64()*10, rng.Float64()*10)
	}
	refArea := math.Abs(PolygonArea(MonotoneChain(base, eps)))
	for k := 0; k < 24; k++ {
		theta := float64(k) * math.Pi / 12
		c, s := math.Cos(theta), math.Sin(theta)
		rot := make([]geom.Point, len(base))
		for i, p := range base {
			rot[i] = pt(c*p[0]-s*p[1], s*p[0]+c*p[1])
		}
		area := math.Abs(PolygonArea(MonotoneChain(rot, eps)))
		if math.Abs(area-refArea) > 1e-6*math.Max(1, refArea) {
			t.Errorf("area changed under rotation %d: %v vs %v", k, area, refArea)
		}
	}
}

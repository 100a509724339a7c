package polytope

import (
	"math"
	"math/rand"
	"testing"

	"chc/internal/geom"
)

func vertsBitsEqual(a, b []geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

func randCloud(n, d int, seed int64, shift float64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		p := geom.Zero(d)
		for j := range p {
			p[j] = rng.Float64()*4 + shift
		}
		pts[i] = p
	}
	return pts
}

// TestIntersectIgnoresGlobalRand: the support-sampling directions of the
// degenerate d >= 3 fallback come from a fixed seed, not package-global
// rand, so (a) the same operands always give the same bits and (b)
// concurrent intersections cannot perturb each other's sampling sequences.
// The operands are two unit cubes sharing the face x = 1, whose Chebyshev
// radius is zero, so the fallback runs.
func TestIntersectIgnoresGlobalRand(t *testing.T) {
	cube := func(x0 float64) *Polytope {
		var pts []geom.Point
		for _, x := range []float64{x0, x0 + 1} {
			for _, y := range []float64{0, 1} {
				for _, z := range []float64{0, 1} {
					pts = append(pts, geom.NewPoint(x, y, z))
				}
			}
		}
		p, err := New(pts, geom.DefaultEps)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	polys := []*Polytope{cube(0), cube(1)}
	ref, err := Intersect(polys, geom.DefaultEps)
	if err != nil {
		t.Fatal(err)
	}
	if d, err := ref.AffineDim(geom.DefaultEps); err != nil || d != 2 {
		t.Fatalf("shared face has affine dimension %d (%v), want 2", d, err)
	}
	// Perturbing the package-global source must not change anything.
	for i := 0; i < 1000; i++ {
		_ = rand.Int63()
	}
	again, err := Intersect(polys, geom.DefaultEps)
	if err != nil {
		t.Fatal(err)
	}
	if !vertsBitsEqual(ref.Vertices(), again.Vertices()) {
		t.Error("Intersect result depends on global rand state")
	}
}

// TestChebyshevCenterMemoized: repeated queries return identical bits and a
// fresh copy each time (no aliasing of the cached centre).
func TestChebyshevCenterMemoized(t *testing.T) {
	p, err := New(randCloud(12, 3, 55, 0), geom.DefaultEps)
	if err != nil {
		t.Fatal(err)
	}
	c1, r1, err := p.ChebyshevCenter(geom.DefaultEps)
	if err != nil {
		t.Fatal(err)
	}
	c2, r2, err := p.ChebyshevCenter(geom.DefaultEps)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(r1) != math.Float64bits(r2) || !vertsBitsEqual([]geom.Point{c1}, []geom.Point{c2}) {
		t.Fatal("memoized Chebyshev centre differs across calls")
	}
	c1[0] = 1e9
	c3, _, err := p.ChebyshevCenter(geom.DefaultEps)
	if err != nil {
		t.Fatal(err)
	}
	if c3[0] == 1e9 {
		t.Fatal("ChebyshevCenter returned an aliased centre")
	}
}

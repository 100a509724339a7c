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

// TestIntersectSeededIsolation: the support-sampling directions derive from
// the caller-supplied seed, not package-global rand, so (a) the same seed
// always gives the same result and (b) concurrent intersections cannot
// perturb each other's sampling sequences.
func TestIntersectSeededIsolation(t *testing.T) {
	mk := func(seed int64, shift float64) *Polytope {
		p, err := New(randCloud(10, 3, seed, shift), geom.DefaultEps)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	polys := []*Polytope{mk(23, 0), mk(29, 0.5), mk(31, -0.5)}

	ref, err := IntersectSeeded(polys, geom.DefaultEps, DefaultDirSeed)
	if err != nil {
		t.Fatal(err)
	}
	// Default entry point uses DefaultDirSeed.
	same, err := Intersect(polys, geom.DefaultEps)
	if err != nil {
		t.Fatal(err)
	}
	if !vertsBitsEqual(ref.Vertices(), same.Vertices()) {
		t.Error("Intersect != IntersectSeeded(DefaultDirSeed)")
	}
	// Perturbing the package-global source must not change anything.
	for i := 0; i < 1000; i++ {
		_ = rand.Int63()
	}
	again, err := IntersectSeeded(polys, geom.DefaultEps, DefaultDirSeed)
	if err != nil {
		t.Fatal(err)
	}
	if !vertsBitsEqual(ref.Vertices(), again.Vertices()) {
		t.Error("IntersectSeeded result depends on global rand state")
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

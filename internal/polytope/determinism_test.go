package polytope

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"chc/internal/geom"
	"chc/internal/geom/par"
)

// runSequential executes fn with the worker pool forced onto the calling
// goroutine — the reference execution every parallel run must match bitwise.
func runSequential(t *testing.T, fn func()) {
	t.Helper()
	defer par.SetMaxWorkers(par.SetMaxWorkers(1))
	fn()
}

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

// TestParallelMatchesSequentialBitwise is the determinism grid of the
// parallel engine: for seeds x dimensions, Intersect, Average and the
// pairwise Hausdorff maximum must be bitwise-identical between the
// sequential reference (one worker) and the parallel execution. Run under
// -race this also exercises the pool's synchronization.
func TestParallelMatchesSequentialBitwise(t *testing.T) {
	type result struct {
		interVerts []geom.Point
		avgVerts   []geom.Point
		maxH       float64
	}
	compute := func(seed int64, d int) result {
		// Overlapping clouds so the intersection is non-empty.
		polys := make([]*Polytope, 3)
		for k := range polys {
			p, err := New(randCloud(8+2*k, d, seed+int64(k)*17, float64(k)*0.3), geom.DefaultEps)
			if err != nil {
				t.Fatalf("seed %d d %d: New: %v", seed, d, err)
			}
			polys[k] = p
		}
		var res result
		inter, err := Intersect(polys, geom.DefaultEps)
		if err != nil && !errors.Is(err, ErrEmpty) {
			t.Fatalf("seed %d d %d: Intersect: %v", seed, d, err)
		}
		if err == nil {
			res.interVerts = inter.Vertices()
		}
		avg, err := Average(polys, geom.DefaultEps)
		if err != nil {
			t.Fatalf("seed %d d %d: Average: %v", seed, d, err)
		}
		res.avgVerts = avg.Vertices()
		h, err := MaxPairwiseHausdorff(polys, geom.DefaultEps)
		if err != nil {
			t.Fatalf("seed %d d %d: Hausdorff: %v", seed, d, err)
		}
		res.maxH = h
		return res
	}

	for _, d := range []int{2, 3, 4} {
		for seed := int64(1); seed <= 4; seed++ {
			if d == 4 && seed > 2 {
				break // 4-D facet enumeration is slow; two seeds suffice
			}
			var ref result
			runSequential(t, func() { ref = compute(seed, d) })
			got := compute(seed, d)
			if !vertsBitsEqual(ref.interVerts, got.interVerts) {
				t.Errorf("seed %d d %d: Intersect parallel != sequential", seed, d)
			}
			if !vertsBitsEqual(ref.avgVerts, got.avgVerts) {
				t.Errorf("seed %d d %d: Average parallel != sequential", seed, d)
			}
			if math.Float64bits(ref.maxH) != math.Float64bits(got.maxH) {
				t.Errorf("seed %d d %d: Hausdorff %v != %v", seed, d, ref.maxH, got.maxH)
			}
		}
	}
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

// TestSupportCacheBitwise: cached support queries equal fresh scans.
func TestSupportCacheBitwise(t *testing.T) {
	// 20 vertices >= supportCacheMinVerts, so the cache engages.
	pts := randCloud(40, 3, 66, 0)
	p, err := New(pts, geom.DefaultEps)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	dirs := make([]geom.Point, 32)
	for i := range dirs {
		v := geom.Zero(3)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		dirs[i] = v
	}
	type ans struct {
		v   geom.Point
		val float64
	}
	first := make([]ans, len(dirs))
	for i, d := range dirs {
		v, val, err := p.Support(d)
		if err != nil {
			t.Fatal(err)
		}
		first[i] = ans{v, val}
	}
	for i, d := range dirs { // second pass: cache hits
		v, val, err := p.Support(d)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(val) != math.Float64bits(first[i].val) ||
			!vertsBitsEqual([]geom.Point{v}, []geom.Point{first[i].v}) {
			t.Fatalf("dir %d: cached support differs from first scan", i)
		}
	}
}

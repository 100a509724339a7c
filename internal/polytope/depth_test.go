package polytope

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"chc/internal/geom"
	"chc/internal/lp"
)

// subsetHulls returns H(C) for every (|pts|−f)-subset C of pts, in
// lexicographic order of the f excluded indices.
func subsetHulls(t *testing.T, pts []geom.Point, f int) []*Polytope {
	t.Helper()
	var out []*Polytope
	excl := make([]int, f)
	var rec func(from, depth int)
	rec = func(from, depth int) {
		if depth == f {
			sub := make([]geom.Point, 0, len(pts)-f)
			for k, x := range pts {
				skip := false
				for _, e := range excl {
					skip = skip || e == k
				}
				if !skip {
					sub = append(sub, x)
				}
			}
			p, err := New(sub, eps)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, p)
			return
		}
		for k := from; k < len(pts); k++ {
			excl[depth] = k
			rec(k+1, depth+1)
		}
	}
	rec(0, 0)
	return out
}

// maxExcess is the largest distance of a vertex of p from one of the hulls.
func maxExcess(t *testing.T, p *Polytope, hulls []*Polytope) float64 {
	t.Helper()
	worst := 0.0
	for _, v := range p.verts {
		for _, h := range hulls {
			d, err := h.Distance(v, eps)
			if err != nil {
				t.Fatal(err)
			}
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}

// depthCase is one multiset X with its f, named for failure messages.
type depthCase struct {
	name string
	f    int
	pts  []geom.Point
}

func uniformPts(rng *rand.Rand, k, d int) []geom.Point {
	pts := make([]geom.Point, k)
	for i := range pts {
		p := geom.Zero(d)
		for j := range p {
			p[j] = rng.Float64() * 10
		}
		pts[i] = p
	}
	return pts
}

// depthCases sweeps d ∈ {1, 2, 3} and (n, f) at and above the resilience
// bound n = (d+2)f+1, with |X| = n−f and |X| = n, plus repeated inputs,
// all-equal inputs, collinear X in 2-D, coplanar X in 3-D and E10's
// below-bound views (the inputs experiments.genericInputs draws).
func depthCases() []depthCase {
	rng := rand.New(rand.NewSource(1))
	var cases []depthCase
	add := func(name string, f int, pts []geom.Point) {
		cases = append(cases, depthCase{name: name, f: f, pts: pts})
	}
	for d := 1; d <= 3; d++ {
		for f := 1; f <= 2; f++ {
			bound := (d+2)*f + 1
			trials, sizes, full := 20, []int{bound, bound + 1}, true
			if d == 3 && f == 2 {
				// The oracle's C(|X|, 2) hulls cost 50 ms a view at
				// |X| = 9, 500 ms at |X| = 11 and over a second with
				// repeated inputs when they came from an LP; d = 3,
				// f = 1 covers repeated inputs.
				trials, sizes, full = 2, []int{bound}, false
			}
			for _, n := range sizes {
				xs := []int{n - f}
				if full {
					xs = append(xs, n)
				}
				for _, x := range xs {
					for s := 0; s < trials; s++ {
						add(fmt.Sprintf("uniform d=%d n=%d f=%d |X|=%d #%d", d, n, f, x, s), f, uniformPts(rng, x, d))
					}
				}
			}
			// E10's below-bound views.
			n := bound - 1
			for s := 0; s < trials; s++ {
				vrng := rand.New(rand.NewSource(int64(n*1000 + s)))
				add(fmt.Sprintf("below bound d=%d n=%d f=%d #%d", d, n, f, s), f, uniformPts(vrng, n-f, d))
			}
			if !full {
				continue
			}
			// Repeated inputs: a third of X copies another input.
			for s := 0; s < trials; s++ {
				pts := uniformPts(rng, bound-f, d)
				for i := 0; i < len(pts)/3; i++ {
					pts[rng.Intn(len(pts))] = pts[rng.Intn(len(pts))].Clone()
				}
				add(fmt.Sprintf("repeated d=%d f=%d #%d", d, f, s), f, pts)
			}
			same := uniformPts(rng, 1, d)[0]
			pts := make([]geom.Point, bound-f)
			for i := range pts {
				pts[i] = same.Clone()
			}
			add(fmt.Sprintf("all equal d=%d f=%d", d, f), f, pts)
		}
	}
	// Collinear X in 2-D and coplanar X in 3-D, on tilted subspaces.
	for _, f := range []int{1, 2} {
		for s := 0; s < 10; s++ {
			o, u := uniformPts(rng, 1, 2)[0], geom.NewPoint(0.6, 0.8)
			pts := make([]geom.Point, 4*f+1)
			for i := range pts {
				pts[i] = o.AddScaled(rng.Float64()*8-4, u)
			}
			add(fmt.Sprintf("collinear f=%d #%d", f, s), f, pts)
		}
	}
	for s := 0; s < 10; s++ {
		o := uniformPts(rng, 1, 3)[0]
		u, v := geom.NewPoint(0.6, 0.8, 0), geom.NewPoint(0, 0.6, 0.8)
		pts := make([]geom.Point, 5)
		for i := range pts {
			pts[i] = o.AddScaled(rng.Float64()*8-4, u).AddScaled(rng.Float64()*8-4, v)
		}
		add(fmt.Sprintf("coplanar f=1 #%d", s), 1, pts)
	}
	// A view at n=9, f=2, d=2, the bound, on which the subset-hull
	// intersection came back empty while its clips cut at lines shifted
	// by eps/2.
	add("sharp corners at the bound", 2, []geom.Point{
		pt(1.8424567577088165, 3.7568770893905645), pt(7.325426907085713, 3.4096813023915704),
		pt(5.038370564176616, 4.639252717660395), pt(8.066031343278532, 3.2146216284253826),
		pt(4.1501073247689835, 3.008564390008177), pt(5.644196729688041, 6.314409835089751),
		pt(2.582060622969733, 8.413401837869356),
	})
	return cases
}

// TestDepthRegionAgainstSubsetHulls holds DepthRegion to the construction it
// replaced, the intersection of the C(|X|, f) subset hulls: the same
// empty/non-empty verdict; no vertex further outside a subset hull than the
// oracle's worst vertex plus 1e-9·scale; and Hausdorff distance ≤
// 1e-9·scale wherever the oracle region's Chebyshev radius exceeds
// 1e-3·scale. Thinner regions are near-degenerate, and there the two
// constructions may pick different points of the same tolerance band.
func TestDepthRegionAgainstSubsetHulls(t *testing.T) {
	const scale = 10
	nonEmpty, compared := 0, 0
	for _, c := range depthCases() {
		hulls := subsetHulls(t, c.pts, c.f)
		want, werr := Intersect(hulls, eps)
		got, gerr := DepthRegion(c.pts, c.f, eps)
		if werr != nil && !errors.Is(werr, ErrEmpty) {
			t.Fatalf("%s: oracle: %v", c.name, werr)
		}
		if gerr != nil && !errors.Is(gerr, ErrEmpty) {
			t.Fatalf("%s: DepthRegion: %v", c.name, gerr)
		}
		if (werr == nil) != (gerr == nil) {
			t.Errorf("%s: oracle err = %v, DepthRegion err = %v", c.name, werr, gerr)
			continue
		}
		if werr != nil {
			continue
		}
		nonEmpty++
		if ex, wex := maxExcess(t, got, hulls), maxExcess(t, want, hulls); ex > wex+1e-9*scale {
			t.Errorf("%s: a vertex lies %g outside a subset hull, oracle %g", c.name, ex, wex)
		}
		if r, err := chebyshevRadius(want); err != nil || r <= 1e-3*scale {
			continue
		}
		compared++
		if h, err := Hausdorff(got, want, eps); err != nil || h > 1e-9*scale {
			t.Errorf("%s: Hausdorff to the oracle %g (%v)", c.name, h, err)
		}
	}
	if nonEmpty == 0 || compared == 0 {
		t.Fatalf("sweep is vacuous: %d non-empty, %d compared", nonEmpty, compared)
	}
}

// chebyshevRadius is the radius of the largest ball inside p, by the LP of
// the reference oracle.
func chebyshevRadius(p *Polytope) (float64, error) {
	if len(p.verts) == 1 {
		return 0, nil
	}
	facets, err := p.Facets(eps)
	if err != nil {
		return 0, err
	}
	a := make([][]float64, len(facets))
	b := make([]float64, len(facets))
	for i, f := range facets {
		a[i], b[i] = f.Normal, f.Offset
	}
	_, r, err := lp.ChebyshevCenter(a, b, eps)
	return r, err
}

// TestDepthRegion1D: the interval between the (f+1)-th and (|X|−f)-th order
// statistics, collapsing to a point when they meet and empty when they cross.
func TestDepthRegion1D(t *testing.T) {
	pts := []geom.Point{pt(5), pt(1), pt(4), pt(2), pt(3)}
	got, err := DepthRegion(pts, 2, eps)
	if err != nil || got.NumVertices() != 1 || got.verts[0][0] != 3 {
		t.Fatalf("f=2: %v (%v), want the median 3", got, err)
	}
	got, err = DepthRegion(pts, 1, eps)
	if lo, hi, _ := got.BoundingBox(); err != nil || lo[0] != 2 || hi[0] != 4 {
		t.Fatalf("f=1: %v (%v), want [2, 4]", got, err)
	}
	if _, err := DepthRegion(pts[:4], 2, eps); !errors.Is(err, ErrEmpty) {
		t.Fatalf("4 points, f=2: err = %v, want ErrEmpty", err)
	}
	if _, err := DepthRegion(pts, 5, eps); err == nil || errors.Is(err, ErrEmpty) {
		t.Fatalf("f = |X|: err = %v, want a parameter error", err)
	}
}

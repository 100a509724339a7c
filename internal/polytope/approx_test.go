package polytope

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"chc/internal/geom"
)

func regularPolygon(k int, radius float64) []geom.Point {
	pts := make([]geom.Point, k)
	for i := 0; i < k; i++ {
		a := 2 * math.Pi * float64(i) / float64(k)
		pts[i] = pt(radius*math.Cos(a), radius*math.Sin(a))
	}
	return pts
}

func TestLimitVerticesNoOpWhenSmall(t *testing.T) {
	p := mustNew(t, regularPolygon(4, 1)...)
	q, errDist, err := LimitVertices(p, 8, eps)
	if err != nil {
		t.Fatal(err)
	}
	if errDist != 0 || q.NumVertices() != 4 {
		t.Errorf("no-op budget: err=%v verts=%d", errDist, q.NumVertices())
	}
}

func TestLimitVerticesReduces(t *testing.T) {
	p := mustNew(t, regularPolygon(24, 1)...)
	q, errDist, err := LimitVertices(p, 6, eps)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumVertices() > 6 {
		t.Errorf("budget exceeded: %d vertices", q.NumVertices())
	}
	// Inner approximation: q ⊆ p.
	in, err := p.ContainsPolytope(q, 1e-9)
	if err != nil || !in {
		t.Errorf("approximation not inside original: %v %v", in, err)
	}
	// The optimal 6-subset of a unit 24-gon has error 1 - cos(pi/6) ~ 0.134;
	// greedy farthest-point selection is a 2-approximation, so allow up to
	// ~2x that (the worst observed gap is a 90° arc: 1 - cos(pi/4) ~ 0.293).
	if errDist <= 0 || errDist > 0.35 {
		t.Errorf("error = %v out of expected range", errDist)
	}
	// Reported error matches an independent directed-Hausdorff computation.
	check, err := DirectedHausdorff(p, q, eps)
	if err != nil || math.Abs(check-errDist) > 1e-9 {
		t.Errorf("reported error %v vs recomputed %v", errDist, check)
	}
}

func TestLimitVerticesValidation(t *testing.T) {
	p := mustNew(t, regularPolygon(8, 1)...)
	if _, _, err := LimitVertices(p, 1, eps); err == nil {
		t.Error("budget < 2 should error")
	}
}

func TestSupportProfile(t *testing.T) {
	sq := unitSquare(t)
	dirs := []geom.Point{pt(1, 0), pt(0, 1), pt(-1, 0), pt(1, 1)}
	prof, err := sq.SupportProfile(dirs)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1, 0, 2}
	for i := range want {
		if math.Abs(prof[i]-want[i]) > 1e-9 {
			t.Errorf("profile[%d] = %v, want %v", i, prof[i], want[i])
		}
	}
}

func TestSampleBoundaryDirections(t *testing.T) {
	dirs := SampleBoundaryDirections(3, 16, 1)
	if len(dirs) != 16 {
		t.Fatalf("got %d directions", len(dirs))
	}
	for _, u := range dirs {
		if math.Abs(u.Norm()-1) > 1e-9 {
			t.Errorf("direction %v is not unit", u)
		}
	}
	again := SampleBoundaryDirections(3, 16, 1)
	for i := range dirs {
		if !geom.Equal(dirs[i], again[i], 0) {
			t.Error("directions are not deterministic for a fixed seed")
		}
	}
}

func TestVertexCountsSorted(t *testing.T) {
	a := mustNew(t, regularPolygon(5, 1)...)
	b := FromPoint(pt(0, 0))
	counts := VertexCountsSorted([]*Polytope{a, b})
	if len(counts) != 2 || counts[0] != 1 || counts[1] != 5 {
		t.Errorf("counts = %v", counts)
	}
}

// Property: support function of a Minkowski combination is the weighted sum
// of support functions — h_{L(h1..hk;c)}(u) = sum c_i h_{hi}(u). This is an
// exact identity of convex geometry and pins down LinearCombination.
func TestSupportOfCombinationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() *Polytope {
			n := 1 + rng.Intn(7)
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = pt(rng.Float64()*8-4, rng.Float64()*8-4)
			}
			p, err := New(pts, eps)
			if err != nil {
				return nil
			}
			return p
		}
		k := 2 + rng.Intn(3)
		polys := make([]*Polytope, k)
		w := make([]float64, k)
		var sum float64
		for i := range polys {
			if polys[i] = mk(); polys[i] == nil {
				return false
			}
			w[i] = rng.Float64() + 0.05
			sum += w[i]
		}
		for i := range w {
			w[i] /= sum
		}
		l, err := LinearCombination(polys, w, eps)
		if err != nil {
			return false
		}
		dirs := SampleBoundaryDirections(2, 12, seed)
		lProf, err := l.SupportProfile(dirs)
		if err != nil {
			return false
		}
		for di, u := range dirs {
			var want float64
			for i, p := range polys {
				_, v, err := p.Support(u)
				if err != nil {
					return false
				}
				want += w[i] * v
			}
			if math.Abs(lProf[di]-want) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: intersection is contained in every operand, and intersecting
// with itself is the identity.
func TestIntersectionProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func(cx, cy float64) *Polytope {
			n := 3 + rng.Intn(6)
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = pt(cx+rng.Float64()*4, cy+rng.Float64()*4)
			}
			p, err := New(pts, eps)
			if err != nil {
				return nil
			}
			return p
		}
		a := mk(0, 0)
		b := mk(1, 1) // overlapping region likely
		if a == nil || b == nil {
			return false
		}
		selfInter, err := Intersect([]*Polytope{a, a}, eps)
		if err != nil {
			return false
		}
		same, err := Equal(selfInter, a, 1e-6)
		if err != nil || !same {
			return false
		}
		inter, err := Intersect([]*Polytope{a, b}, eps)
		if err != nil {
			return true // disjoint is fine
		}
		inA, err1 := a.ContainsPolytope(inter, 1e-6)
		inB, err2 := b.ContainsPolytope(inter, 1e-6)
		return err1 == nil && err2 == nil && inA && inB
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: LimitVertices error shrinks (weakly) as the budget grows.
func TestLimitVerticesMonotone(t *testing.T) {
	p := mustNew(t, regularPolygon(30, 2)...)
	prev := math.Inf(1)
	for _, budget := range []int{3, 5, 8, 12, 20, 30} {
		_, errDist, err := LimitVertices(p, budget, eps)
		if err != nil {
			t.Fatal(err)
		}
		if errDist > prev+1e-9 {
			t.Errorf("error grew from %v to %v at budget %d", prev, errDist, budget)
		}
		prev = errDist
	}
	if prev > 1e-9 {
		t.Errorf("full budget should be exact, error = %v", prev)
	}
}

// SampleBoundaryDirections returns k approximately spread unit directions
// (deterministic for a given seed) for tests probing polytope boundaries.
func SampleBoundaryDirections(d, k int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	dirs := make([]geom.Point, 0, k)
	for len(dirs) < k {
		v := make(geom.Point, d)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		if n := v.Norm(); n > 1e-12 {
			dirs = append(dirs, v.Scale(1/n))
		}
	}
	return dirs
}

// VertexCountsSorted returns the sorted vertex counts of a set of
// polytopes.
func VertexCountsSorted(polys []*Polytope) []int {
	out := make([]int, len(polys))
	for i, p := range polys {
		out[i] = p.NumVertices()
	}
	sort.Ints(out)
	return out
}

package polytope

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"chc/internal/geom"
)

func TestAverageOfTranslates(t *testing.T) {
	// Average of X and X+v is X translated by v/2 (for convex X).
	sq := unitSquare(t)
	moved := sq.Translate(pt(2, 0))
	avg, err := Average([]*Polytope{sq, moved}, eps)
	if err != nil {
		t.Fatal(err)
	}
	want := sq.Translate(pt(1, 0))
	same, err := Equal(avg, want, 1e-6)
	if err != nil || !same {
		t.Errorf("average = %v, want %v", avg, want)
	}
}

func TestAverageOfPoints(t *testing.T) {
	a := FromPoint(pt(0, 0))
	b := FromPoint(pt(2, 4))
	avg, err := Average([]*Polytope{a, b}, eps)
	if err != nil {
		t.Fatal(err)
	}
	if !avg.IsPoint(1e-9) {
		t.Fatalf("average of points should be a point: %v", avg)
	}
	c, err := avg.Centroid()
	if err != nil || !geom.Equal(c, pt(1, 2), 1e-9) {
		t.Errorf("average point = %v", c)
	}
}

func TestLinearCombinationIdentity(t *testing.T) {
	sq := unitSquare(t)
	got, err := LinearCombination([]*Polytope{sq}, []float64{1}, eps)
	if err != nil {
		t.Fatal(err)
	}
	same, err := Equal(got, sq, 1e-9)
	if err != nil || !same {
		t.Errorf("L([h];[1]) != h")
	}
}

func TestLinearCombinationWeighted(t *testing.T) {
	// 0.25 * [0,4] + 0.75 * {8} = [6, 7] in 1-D.
	a := mustNew(t, pt(0), pt(4))
	b := FromPoint(pt(8))
	got, err := LinearCombination([]*Polytope{a, b}, []float64{0.25, 0.75}, eps)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, err := got.BoundingBox()
	if err != nil || math.Abs(lo[0]-6) > eps || math.Abs(hi[0]-7) > eps {
		t.Errorf("combination = [%v, %v], want [6, 7]", lo, hi)
	}
}

func TestLinearCombinationValidation(t *testing.T) {
	sq := unitSquare(t)
	if _, err := LinearCombination(nil, nil, eps); err == nil {
		t.Error("empty operands should error")
	}
	if _, err := LinearCombination([]*Polytope{sq}, []float64{0.5}, eps); err == nil {
		t.Error("weights not summing to 1 should error")
	}
	if _, err := LinearCombination([]*Polytope{sq, sq}, []float64{1.5, -0.5}, eps); err == nil {
		t.Error("negative weight should error")
	}
	if _, err := LinearCombination([]*Polytope{sq}, []float64{0.5, 0.5}, eps); err == nil {
		t.Error("mismatched lengths should error")
	}
	one := mustNew(t, pt(0), pt(1))
	if _, err := LinearCombination([]*Polytope{sq, one}, []float64{0.5, 0.5}, eps); err == nil {
		t.Error("mixed dimensions should error")
	}
}

func TestLinearCombinationZeroWeightDropped(t *testing.T) {
	sq := unitSquare(t)
	far := mustNew(t, pt(100, 100), pt(101, 100), pt(100, 101))
	got, err := LinearCombination([]*Polytope{sq, far}, []float64{1, 0}, eps)
	if err != nil {
		t.Fatal(err)
	}
	same, err := Equal(got, sq, 1e-9)
	if err != nil || !same {
		t.Errorf("zero-weight operand leaked into the result: %v", got)
	}
}

func TestAverage3D(t *testing.T) {
	tet := mustNew(t, pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1))
	moved := tet.Translate(pt(1, 1, 1))
	avg, err := Average([]*Polytope{tet, moved}, eps)
	if err != nil {
		t.Fatal(err)
	}
	want := tet.Translate(pt(0.5, 0.5, 0.5))
	same, err := Equal(avg, want, 1e-6)
	if err != nil || !same {
		t.Errorf("3-D average mismatch")
	}
}

// Property (Definition 2 / Lemma 5): every convex combination of points
// drawn from the operands lies inside L, and L's vertices decompose as
// weighted sums of operand points.
func TestLinearCombinationDefinition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() *Polytope {
			n := 1 + rng.Intn(6)
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
			w[i] = rng.Float64() + 0.01
			sum += w[i]
		}
		for i := range w {
			w[i] /= sum
		}
		l, err := LinearCombination(polys, w, eps)
		if err != nil {
			return false
		}
		// Sample points p_i in h_i; sum w_i p_i must be in L.
		for trial := 0; trial < 5; trial++ {
			acc := geom.Zero(2)
			for i, p := range polys {
				s, err := p.Sample(rng)
				if err != nil {
					return false
				}
				acc = acc.AddScaled(w[i], s)
			}
			in, err := l.Contains(acc, 1e-6)
			if err != nil || !in {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: averaging is a contraction toward agreement — the Hausdorff
// distance between two averages is at most the average of the pairwise
// distances (the engine of the convergence proof).
func TestAverageContraction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() *Polytope {
			n := 1 + rng.Intn(5)
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = pt(rng.Float64()*6-3, rng.Float64()*6-3)
			}
			p, err := New(pts, eps)
			if err != nil {
				return nil
			}
			return p
		}
		a, b, c := mk(), mk(), mk()
		if a == nil || b == nil || c == nil {
			return false
		}
		// avg1 over {a,b,c}, avg2 over {a,b} (simulating different message
		// sets): both contain weighted mixes; sanity-check dH(avg1, avg2) is
		// no larger than max pairwise distance among operands.
		avg1, err := Average([]*Polytope{a, b, c}, eps)
		if err != nil {
			return false
		}
		avg2, err := Average([]*Polytope{a, b}, eps)
		if err != nil {
			return false
		}
		dmax, err := MaxPairwiseHausdorff([]*Polytope{a, b, c}, eps)
		if err != nil {
			return false
		}
		d, err := Hausdorff(avg1, avg2, eps)
		if err != nil {
			return false
		}
		return d <= dmax+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestLinearCombinationGroupsEqualOperands: L merges pointer- and
// bitwise-equal operands into one with the summed weight, returns a lone
// remaining operand itself, and otherwise matches the kernel run over the
// unmerged operands.
func TestLinearCombinationGroupsEqualOperands(t *testing.T) {
	for _, d := range []int{1, 2, 3} {
		a, err := New(randCloud(10, d, int64(40+d), 0), eps)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(randCloud(10, d, int64(50+d), 0.7), eps)
		if err != nil {
			t.Fatal(err)
		}

		if got, err := Average([]*Polytope{a, a, a}, eps); err != nil || got != a {
			t.Errorf("d=%d: pointer-equal operands: got %p (%v), want the operand %p", d, got, err, a)
		}

		twin, err := FromCanonical(a.Vertices())
		if err != nil {
			t.Fatal(err)
		}
		if got, err := Average([]*Polytope{a, twin, twin}, eps); err != nil || (got != a && got != twin) {
			t.Errorf("d=%d: bitwise-equal operands were not merged: %v", d, err)
		}

		ops := []*Polytope{a, a, b, twin, b}
		ws := []float64{0.1, 0.2, 0.3, 0.15, 0.25}
		got, err := LinearCombination(ops, ws, eps)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := combine(ops, ws, eps)
		if err != nil {
			t.Fatal(err)
		}
		h, err := Hausdorff(got, ref, eps)
		if err != nil {
			t.Fatal(err)
		}
		if scale := math.Max(1, ref.Diameter()); h > 1e-12*scale {
			t.Errorf("d=%d: grouped L is %g from the ungrouped kernel (scale %g)", d, h, scale)
		}

		// One ulp off in one coordinate is a different operand.
		verts := a.Vertices()
		verts[0][0] = math.Nextafter(verts[0][0], math.Inf(-1))
		ulp, err := FromCanonical(verts)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := Average([]*Polytope{a, ulp}, eps); err != nil || got == a || got == ulp {
			t.Errorf("d=%d: operands one ulp apart were merged (%v)", d, err)
		}

		// Zero weights drop out before grouping.
		if got, err := LinearCombination([]*Polytope{b, a, b}, []float64{0, 1, 0}, eps); err != nil || got != a {
			t.Errorf("d=%d: zero-weight operands were not dropped before grouping (%v)", d, err)
		}
	}
}

// TestLinearCombinationKeepsSmallStates: E17's seed-70 run, where four
// processes start from the Radon point p of their four-input view and a
// restarted one from the five-input region, which has p as a vertex. L
// keeps p in (1−w)·{p} + w·P at any weight: every operand contains it. When
// the 2-D kernel judged corners and parallel edges by area, a state a few
// 1e-5 across lost its vertex p by a fifth of its width, and the decisions
// missed I_Z = {p} by 9e-6 (Lemma 6).
func TestLinearCombinationKeepsSmallStates(t *testing.T) {
	p := pt(7.209109438724143, 1.30874758890387)
	region, err := FromCanonical([]geom.Point{
		pt(4.9573210957591884, 1.4341307465808177), pt(6.001170488476458, 1.036268670532049),
		pt(7.229201773632204, 1.0744717524668288), pt(7.209109438724143, 1.3087475889038707),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []float64{1e-2, 1e-4, 3e-5, 1e-6, 1e-8} {
		lc, err := LinearCombination([]*Polytope{FromPoint(p), region}, []float64{1 - w, w}, eps)
		if err != nil {
			t.Fatal(err)
		}
		if d, err := lc.Distance(p, eps); err != nil || d > 1e-9 {
			t.Errorf("w=%g: %d vertices, p is %g outside (%v)", w, lc.NumVertices(), d, err)
		}
	}
}

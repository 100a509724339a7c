package polytope

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"chc/internal/geom"
)

func TestHausdorffTranslatedSquares(t *testing.T) {
	sq := unitSquare(t)
	moved := sq.Translate(pt(3, 0))
	d, err := Hausdorff(sq, moved, eps)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-3) > 1e-9 {
		t.Errorf("d_H = %v, want 3", d)
	}
}

func TestHausdorffIdentical(t *testing.T) {
	sq := unitSquare(t)
	d, err := Hausdorff(sq, sq, eps)
	if err != nil || d > 1e-12 {
		t.Errorf("d_H(X, X) = %v, %v", d, err)
	}
}

func TestHausdorffNestedIsDirected(t *testing.T) {
	// For A ⊆ B: directed(A→B) = 0, directed(B→A) > 0.
	big := mustNew(t, pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4))
	small := mustNew(t, pt(1, 1), pt(3, 1), pt(3, 3), pt(1, 3))
	dab, err := DirectedHausdorff(small, big, eps)
	if err != nil || dab > 1e-9 {
		t.Errorf("directed(small→big) = %v, %v", dab, err)
	}
	dba, err := DirectedHausdorff(big, small, eps)
	if err != nil {
		t.Fatal(err)
	}
	// Farthest point of big from small: a corner, at distance sqrt(2).
	if math.Abs(dba-math.Sqrt2) > 1e-9 {
		t.Errorf("directed(big→small) = %v, want sqrt(2)", dba)
	}
	full, err := Hausdorff(big, small, eps)
	if err != nil || math.Abs(full-dba) > 1e-12 {
		t.Errorf("d_H = %v, want %v", full, dba)
	}
}

func TestHausdorffPoints(t *testing.T) {
	a := FromPoint(pt(0, 0, 0))
	b := FromPoint(pt(1, 2, 2))
	d, err := Hausdorff(a, b, eps)
	if err != nil || math.Abs(d-3) > 1e-9 {
		t.Errorf("d_H = %v, want 3", d)
	}
}

func TestDistance1D(t *testing.T) {
	iv := mustNew(t, pt(2), pt(5))
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0, 2}, {3, 0}, {7, 2}, {2, 0}, {5, 0}} {
		d, err := iv.Distance(pt(tc.q), eps)
		if err != nil || math.Abs(d-tc.want) > 1e-9 {
			t.Errorf("Distance(%v) = %v, want %v", tc.q, d, tc.want)
		}
	}
}

func TestDistance3DWolfe(t *testing.T) {
	tet := mustNew(t, pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1))
	// Interior point: distance 0.
	d, err := tet.Distance(pt(0.1, 0.1, 0.1), eps)
	if err != nil || d > 1e-6 {
		t.Errorf("interior distance = %v, %v", d, err)
	}
	// Point straight above the origin vertex.
	d, err = tet.Distance(pt(-1, -1, -1), eps)
	if err != nil || math.Abs(d-math.Sqrt(3)) > 1e-6 {
		t.Errorf("vertex distance = %v, want sqrt(3)", d)
	}
	// Point beyond the x=... face: nearest point on facet x+y+z=1.
	d, err = tet.Distance(pt(1, 1, 1), eps)
	want := geom.Dist(pt(1, 1, 1), pt(1.0/3, 1.0/3, 1.0/3))
	if err != nil || math.Abs(d-want) > 1e-6 {
		t.Errorf("facet distance = %v, want %v", d, want)
	}
	// The last point lies inside the hull of the other five (two decisions
	// of the benchmark's geom-cold workload): a full corral leaves x at
	// rounding, where the gap's sign is noise.
	for _, pts := range [][]geom.Point{
		{pt(0.2468043881637436, 4.4586063370525935, 3.006144195426085), pt(4.446587599432536, 0.9792379155769413, 4.7453171530435), pt(6.836621781258811, 9.228350141070255, 8.22853457081601), pt(8.490606546907376, 8.726972090423663, 8.356163375982039), pt(2.5159177064145166, 8.614398951340291, 4.049616467180295), pt(4.84483188251542, 6.839311588346533, 5.990147791559705)},
		{pt(3.1129145921068346, 4.424622479657428, 5.501664268282902), pt(8.232039950846865, 9.242799911090295, 9.603466354316986), pt(2.188581714849213, 0.47044593457382466, 6.529127455292838), pt(7.041765089774232, 2.819570958076723, 6.558501061772004), pt(2.3994645319717387, 3.1721105136319814, 6.975312629242713), pt(2.734040775124561, 2.8038492739024, 5.9228100579103)},
	} {
		q := pts[5]
		if d, err := mustNew(t, pts[:5]...).Distance(q, eps); err != nil || d > 1e-9 {
			t.Errorf("%v: distance %v (%v), want 0", q, d, err)
		}
	}
}

func TestNearest(t *testing.T) {
	sq := unitSquare(t)
	n, err := sq.Nearest(pt(2, 0.5), eps)
	if err != nil {
		t.Fatal(err)
	}
	if !geom.Equal(n, pt(1, 0.5), 1e-6) {
		t.Errorf("Nearest = %v, want (1, 0.5)", n)
	}
}

func TestMaxPairwiseHausdorff(t *testing.T) {
	a := FromPoint(pt(0))
	b := FromPoint(pt(1))
	c := FromPoint(pt(5))
	d, err := MaxPairwiseHausdorff([]*Polytope{a, b, c}, eps)
	if err != nil || math.Abs(d-5) > 1e-9 {
		t.Errorf("max pairwise = %v, want 5", d)
	}
	d, err = MaxPairwiseHausdorff([]*Polytope{a}, eps)
	if err != nil || d != 0 {
		t.Errorf("single polytope max pairwise = %v", d)
	}
}

// TestHausdorffNaNOperand: a NaN distance reaches the caller instead of
// being dropped by the running maximum — Hausdorff returns NaN in both
// argument orders and MaxPairwiseHausdorff an error.
func TestHausdorffNaNOperand(t *testing.T) {
	for _, tc := range []struct {
		name string
		nan  *Polytope
		box  *Polytope
	}{
		{"2-D", FromPoint(pt(math.NaN(), 0.5)), unitSquare(t)},
		{"3-D", FromPoint(pt(math.NaN(), 0.5, 0.5)), mustNew(t,
			pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0), pt(1, 1, 0),
			pt(0, 0, 1), pt(1, 0, 1), pt(0, 1, 1), pt(1, 1, 1))},
	} {
		for _, ab := range [][2]*Polytope{{tc.nan, tc.box}, {tc.box, tc.nan}} {
			if d, err := Hausdorff(ab[0], ab[1], eps); err != nil || !math.IsNaN(d) {
				t.Errorf("%s: Hausdorff = %v, %v, want NaN", tc.name, d, err)
			}
		}
		if d, err := MaxPairwiseHausdorff([]*Polytope{tc.nan, tc.box}, eps); err == nil {
			t.Errorf("%s: MaxPairwiseHausdorff = %v, want an error", tc.name, d)
		}
	}
}

// Property: Hausdorff distance is a metric on convex polytopes — symmetric,
// zero iff equal (approximately), and triangle inequality.
func TestHausdorffMetricProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() *Polytope {
			n := 1 + rng.Intn(6)
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = pt(rng.Float64()*10-5, rng.Float64()*10-5)
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
		dab, err1 := Hausdorff(a, b, eps)
		dba, err2 := Hausdorff(b, a, eps)
		dac, err3 := Hausdorff(a, c, eps)
		dcb, err4 := Hausdorff(c, b, eps)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return false
		}
		if math.Abs(dab-dba) > 1e-6 {
			return false
		}
		return dab <= dac+dcb+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: the Wolfe projection agrees with the exact 2-D polygon distance.
func TestWolfeMatches2D(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = pt(rng.Float64()*6-3, rng.Float64()*6-3)
		}
		p, err := New(pts, eps)
		if err != nil {
			return false
		}
		q := pt(rng.Float64()*10-5, rng.Float64()*10-5)
		exact, err := p.Distance(q, eps) // 2-D exact path
		if err != nil {
			return false
		}
		proj, wd, err := minNormPoint(p.verts, q, eps)
		if err != nil {
			return false
		}
		if math.Abs(wd-exact) > 1e-6 {
			return false
		}
		// The projection itself must be (approximately) in the polytope.
		in, err := p.Contains(proj, 1e-6)
		return err == nil && in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

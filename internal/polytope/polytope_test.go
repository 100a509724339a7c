package polytope

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"chc/internal/geom"
)

const eps = 1e-9

func pt(coords ...float64) geom.Point { return geom.NewPoint(coords...) }

func mustNew(t *testing.T, pts ...geom.Point) *Polytope {
	t.Helper()
	p, err := New(pts, eps)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func unitSquare(t *testing.T) *Polytope {
	return mustNew(t, pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1))
}

func TestNewCanonicalises(t *testing.T) {
	p := mustNew(t, pt(0, 0), pt(2, 0), pt(1, 0), pt(2, 2), pt(0, 2), pt(1, 1))
	if p.NumVertices() != 4 {
		t.Errorf("vertices = %d, want 4 (%v)", p.NumVertices(), p.Vertices())
	}
	if p.Dim() != 2 {
		t.Errorf("Dim = %d", p.Dim())
	}
}

func TestFromPoint(t *testing.T) {
	p := FromPoint(pt(3, 4))
	if !p.IsPoint(eps) {
		t.Error("FromPoint should be a point")
	}
	if d, err := p.AffineDim(eps); err != nil || d != 0 {
		t.Errorf("AffineDim = %d, %v", d, err)
	}
}

func TestContains(t *testing.T) {
	sq := unitSquare(t)
	for _, tc := range []struct {
		q    geom.Point
		want bool
	}{
		{pt(0.5, 0.5), true},
		{pt(0, 0), true},
		{pt(1, 0.5), true},
		{pt(1.1, 0.5), false},
		{pt(-0.1, -0.1), false},
	} {
		got, err := sq.Contains(tc.q, eps)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestContainsPolytope(t *testing.T) {
	big := mustNew(t, pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4))
	small := mustNew(t, pt(1, 1), pt(2, 1), pt(1, 2))
	in, err := big.ContainsPolytope(small, eps)
	if err != nil || !in {
		t.Errorf("small in big: %v %v", in, err)
	}
	in, err = small.ContainsPolytope(big, eps)
	if err != nil || in {
		t.Errorf("big in small should be false: %v %v", in, err)
	}
}

func TestSupport(t *testing.T) {
	sq := unitSquare(t)
	v, val, err := sq.Support(pt(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(val-2) > eps || !geom.Equal(v, pt(1, 1), eps) {
		t.Errorf("Support = %v at %v", val, v)
	}
}

func TestVolumeCentroidDiameter(t *testing.T) {
	sq := unitSquare(t)
	vol, err := sq.Volume(eps)
	if err != nil || math.Abs(vol-1) > 1e-9 {
		t.Errorf("Volume = %v, %v", vol, err)
	}
	c, err := sq.Centroid()
	if err != nil || !geom.Equal(c, pt(0.5, 0.5), 1e-9) {
		t.Errorf("Centroid = %v, %v", c, err)
	}
	if d := sq.Diameter(); math.Abs(d-math.Sqrt2) > 1e-9 {
		t.Errorf("Diameter = %v", d)
	}
}

func TestSampleInside(t *testing.T) {
	sq := unitSquare(t)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		q, err := sq.Sample(rng)
		if err != nil {
			t.Fatal(err)
		}
		in, err := sq.Contains(q, 1e-6)
		if err != nil || !in {
			t.Fatalf("sample %v outside the polytope", q)
		}
	}
}

func TestTranslateScale(t *testing.T) {
	sq := unitSquare(t)
	moved := sq.Translate(pt(10, 0))
	in, err := moved.Contains(pt(10.5, 0.5), eps)
	if err != nil || !in {
		t.Error("translated polytope misses translated point")
	}
	scaled := sq.Scale(2)
	vol, err := scaled.Volume(eps)
	if err != nil || math.Abs(vol-4) > 1e-9 {
		t.Errorf("scaled volume = %v", vol)
	}
	zero := sq.Scale(0)
	if !zero.IsPoint(eps) {
		t.Error("zero-scaled polytope should collapse to a point")
	}
}

func TestPolytopeString(t *testing.T) {
	if s := FromPoint(pt(1)).String(); s == "" {
		t.Error("empty String")
	}
	var big []geom.Point
	for i := 0; i < 10; i++ {
		big = append(big, pt(math.Cos(float64(i)), math.Sin(float64(i))))
	}
	p, err := New(big, eps)
	if err != nil {
		t.Fatal(err)
	}
	if s := p.String(); s == "" {
		t.Error("empty String for big polytope")
	}
}

func TestIntersectSquares(t *testing.T) {
	a := unitSquare(t)
	b := mustNew(t, pt(0.5, 0.5), pt(1.5, 0.5), pt(1.5, 1.5), pt(0.5, 1.5))
	got, err := Intersect([]*Polytope{a, b}, eps)
	if err != nil {
		t.Fatal(err)
	}
	vol, err := got.Volume(eps)
	if err != nil || math.Abs(vol-0.25) > 1e-6 {
		t.Errorf("intersection volume = %v, want 0.25", vol)
	}
}

func TestIntersectEmpty(t *testing.T) {
	a := unitSquare(t)
	b := mustNew(t, pt(5, 5), pt(6, 5), pt(5, 6))
	if _, err := Intersect([]*Polytope{a, b}, eps); !errors.Is(err, ErrEmpty) {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
}

// TestIntersectSharpCorners: the four triangles of a four-point view at the
// resilience bound n=5, f=1, d=2 meet in one point, input 0, which lies
// inside the triangle of the others (Lemma 2). Clipping at edge lines
// shifted by eps/2 put crossings near that corner up to eps/(2 sin θ) off
// it, beyond the last edge's tolerance, and the intersection came back
// empty.
func TestIntersectSharpCorners(t *testing.T) {
	x := []geom.Point{
		pt(1.075413400656394, 6.1126427910569685), pt(5.662843779242558, 2.576876957894831),
		pt(0.7008600139107375, 1.386171878936287), pt(0.9961766492636273, 9.608191646270773),
	}
	var tris []*Polytope
	for skip := range x {
		var sub []geom.Point
		for k, p := range x {
			if k != skip {
				sub = append(sub, p)
			}
		}
		tris = append(tris, mustNew(t, sub...))
	}
	got, err := Intersect(tris, eps)
	if err != nil {
		t.Fatalf("Intersect: %v", err)
	}
	for _, v := range got.Vertices() {
		if d := geom.Dist(v, x[0]); d > 1e-8 {
			t.Errorf("vertex %v is %g from input 0", v, d)
		}
	}
}

func TestIntersect1D(t *testing.T) {
	a := mustNew(t, pt(0), pt(3))
	b := mustNew(t, pt(2), pt(5))
	got, err := Intersect([]*Polytope{a, b}, eps)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, err := got.BoundingBox()
	if err != nil || math.Abs(lo[0]-2) > eps || math.Abs(hi[0]-3) > eps {
		t.Errorf("intersection = [%v, %v]", lo, hi)
	}
	// Touching intervals -> single point.
	c := mustNew(t, pt(3), pt(4))
	got, err = Intersect([]*Polytope{a, c}, eps)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsPoint(1e-6) {
		t.Errorf("touching intervals should intersect in a point: %v", got)
	}
	// Disjoint.
	d := mustNew(t, pt(10), pt(11))
	if _, err := Intersect([]*Polytope{a, d}, eps); !errors.Is(err, ErrEmpty) {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
}

func TestIntersect3DCubes(t *testing.T) {
	cube := func(o float64) *Polytope {
		var pts []geom.Point
		for _, x := range []float64{o, o + 1} {
			for _, y := range []float64{o, o + 1} {
				for _, z := range []float64{o, o + 1} {
					pts = append(pts, pt(x, y, z))
				}
			}
		}
		p, err := New(pts, eps)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := cube(0), cube(0.5)
	got, err := Intersect([]*Polytope{a, b}, eps)
	if err != nil {
		t.Fatal(err)
	}
	vol, err := got.Volume(eps)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vol-0.125) > 1e-4 {
		t.Errorf("cube intersection volume = %v, want 0.125", vol)
	}
	// Disjoint cubes.
	if _, err := Intersect([]*Polytope{cube(0), cube(5)}, eps); !errors.Is(err, ErrEmpty) {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
}

func TestIntersect3DTetrahedra(t *testing.T) {
	a := mustNew(t, pt(0, 0, 0), pt(2, 0, 0), pt(0, 2, 0), pt(0, 0, 2))
	b := a.Translate(pt(0.3, 0.3, 0.3))
	got, err := Intersect([]*Polytope{a, b}, eps)
	if err != nil {
		t.Fatal(err)
	}
	// The intersection must contain points interior to both.
	in, err := got.Contains(pt(0.4, 0.4, 0.4), 1e-6)
	if err != nil || !in {
		t.Errorf("intersection misses common interior point: %v %v", in, err)
	}
	// And must be inside both operands.
	for _, op := range []*Polytope{a, b} {
		ok, err := op.ContainsPolytope(got, 1e-6)
		if err != nil || !ok {
			t.Errorf("intersection not contained in operand: %v %v", ok, err)
		}
	}
}

func TestIntersectDegenerateTouching3D(t *testing.T) {
	// Two unit cubes sharing exactly one face: intersection is a 2-D square
	// embedded in 3-D (degenerate path).
	mk := func(x0 float64) *Polytope {
		var pts []geom.Point
		for _, x := range []float64{x0, x0 + 1} {
			for _, y := range []float64{0, 1} {
				for _, z := range []float64{0, 1} {
					pts = append(pts, pt(x, y, z))
				}
			}
		}
		p, err := New(pts, eps)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	got, err := Intersect([]*Polytope{mk(0), mk(1)}, eps)
	if err != nil {
		t.Fatalf("touching cubes should intersect: %v", err)
	}
	// All vertices must lie on the shared face x = 1.
	for _, v := range got.Vertices() {
		if math.Abs(v[0]-1) > 1e-5 {
			t.Errorf("vertex %v off the shared face", v)
		}
	}
}

func TestIntersectMixedDims(t *testing.T) {
	a := unitSquare(t)
	b := mustNew(t, pt(0), pt(1))
	if _, err := Intersect([]*Polytope{a, b}, eps); err == nil {
		t.Error("mixed dimensions should error")
	}
	if _, err := Intersect(nil, eps); err == nil {
		t.Error("empty operand list should error")
	}
}

// TestFromCanonicalRejects: the O(|V|) check refuses every list an honest
// process cannot have built.
func TestFromCanonicalRejects(t *testing.T) {
	for _, tc := range []struct {
		name  string
		verts []geom.Point
	}{
		{"empty", nil},
		{"mixed dimension", []geom.Point{pt(0, 0), pt(1, 0, 0), pt(0, 1)}},
		{"NaN", []geom.Point{pt(0, 0), pt(1, 0), pt(math.NaN(), 1)}},
		{"Inf", []geom.Point{pt(0, 0, 0), pt(math.Inf(1), 0, 0)}},
		{"clockwise", []geom.Point{pt(0, 0), pt(0, 1), pt(1, 1), pt(1, 0)}},
		{"collinear triple", []geom.Point{pt(0, 0), pt(1, 0), pt(2, 0), pt(1, 1)}},
		{"duplicated vertex", []geom.Point{pt(0, 0), pt(1, 0), pt(1, 0), pt(0, 1)}},
		{"duplicated segment end", []geom.Point{pt(1, 1), pt(1, 1)}},
		{"pentagram", []geom.Point{pt(1, 0), pt(-0.809, 0.588), pt(0.309, -0.951), pt(0.309, 0.951), pt(-0.809, -0.588)}},
	} {
		if _, err := FromCanonical(tc.verts); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestFromCanonicalAcceptsCanonical: whatever the operations on polytopes
// return wraps back unchanged — the round trip a broadcast state makes.
func TestFromCanonicalAcceptsCanonical(t *testing.T) {
	for _, d := range []int{1, 2, 3} {
		for seed := int64(1); seed <= 20; seed++ {
			a, err := New(randCloud(12, d, seed, 0), eps)
			if err != nil {
				t.Fatal(err)
			}
			b, err := New(randCloud(9, d, seed+100, 0.5), eps)
			if err != nil {
				t.Fatal(err)
			}
			avg, err := LinearCombination([]*Polytope{a, b}, []float64{0.3, 0.7}, eps)
			if err != nil {
				t.Fatal(err)
			}
			outs := []*Polytope{a, b, avg, FromPoint(a.verts[0])}
			if inter, err := Intersect([]*Polytope{a, b}, eps); err == nil {
				outs = append(outs, inter)
			}
			if lim, _, err := LimitVertices(avg, 4, eps); err == nil {
				outs = append(outs, lim)
			}
			for k, p := range outs {
				q, err := FromCanonical(p.Vertices())
				if err != nil {
					t.Fatalf("d=%d seed=%d operand %d: %v", d, seed, k, err)
				}
				if d >= 3 {
					if err := q.CheckExtreme(eps); err != nil {
						t.Fatalf("d=%d seed=%d operand %d: %v", d, seed, k, err)
					}
				}
			}
		}
	}
	tet := []geom.Point{pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1)}
	p, err := FromCanonical(append(tet, pt(0.2, 0.2, 0.2)))
	if err != nil {
		t.Fatal(err)
	}
	if p.CheckExtreme(eps) == nil {
		t.Error("CheckExtreme accepted an interior vertex")
	}
}

// TestCheckExtremePolygonNearChord: a strictly convex counter-clockwise
// polygon whose vertex (16.188235294117646, 1.4e-76) lies 2.7e-8 (in exact
// arithmetic) outside the hull of the other four: more than eps from its
// neighbours' chord, so extreme. The LP filter CheckExtreme asked before
// called it interior.
func TestCheckExtremePolygonNearChord(t *testing.T) {
	p, err := FromCanonical([]geom.Point{
		pt(6.6552171391412855, 9.5330181549763626),
		pt(16.188235294117646, 1.3980432860952889e-76),
		pt(16.188235332069041, 1.3980432860952889e-76),
		pt(16.188235294117646, 8.0941176470588232),
		pt(8.3772139017321834, 11.999628343251553),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckExtreme(eps); err != nil {
		t.Error(err)
	}
	flat, err := FromCanonical([]geom.Point{pt(0, 0), pt(1, 0), pt(1, 1), pt(0.5, 1+eps/2), pt(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if flat.CheckExtreme(eps) == nil {
		t.Error("CheckExtreme accepted a vertex eps/2 from its neighbours' chord")
	}
}

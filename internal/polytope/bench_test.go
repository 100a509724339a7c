package polytope

import (
	"math"
	"math/rand"
	"testing"

	"chc/internal/geom"
)

func benchPolys(b *testing.B, d, k int, seed int64) (*Polytope, *Polytope) {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	mk := func(off float64) *Polytope {
		pts := make([]geom.Point, k)
		for i := range pts {
			p := make(geom.Point, d)
			for j := range p {
				p[j] = off + rng.Float64()*4
			}
			pts[i] = p
		}
		poly, err := New(pts, eps)
		if err != nil {
			b.Fatal(err)
		}
		return poly
	}
	return mk(0), mk(1)
}

func BenchmarkIntersect3D(b *testing.B) {
	p, q := benchPolys(b, 3, 10, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Intersect([]*Polytope{p, q}, eps); err != nil && err != ErrEmpty {
			b.Fatal(err)
		}
	}
}

func BenchmarkAverage3D(b *testing.B) {
	p, q := benchPolys(b, 3, 8, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Average([]*Polytope{p, q}, eps); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWolfeProjection3D(b *testing.B) {
	p, _ := benchPolys(b, 3, 12, 3)
	q := geom.NewPoint(10, 10, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Distance(q, eps); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLimitVertices(b *testing.B) {
	poly, err := New(regularPolygonBench(64, 3), eps)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := LimitVertices(poly, 8, eps); err != nil {
			b.Fatal(err)
		}
	}
}

func regularPolygonBench(k int, radius float64) []geom.Point {
	pts := make([]geom.Point, k)
	for i := 0; i < k; i++ {
		a := 2 * math.Pi * float64(i) / float64(k)
		pts[i] = geom.NewPoint(radius*math.Cos(a), radius*math.Sin(a))
	}
	return pts
}

// BenchmarkAverageDivergentD3 is a consensus round in d = 3 whose states
// differ, the case the benchmark workloads never reach: six simplices
// shaped like E1's spreadInitialStates (seed 1, in [0,10)³) are averaged
// once, each process taking the other five, and one op is the next such
// round of six Average calls over those round-1 states. Every call re-hulls
// the pairwise vertex sums of its operands (combineND); verts/state is the
// mean vertex count of what the op returns.
func BenchmarkAverageDivergentD3(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	states := make([]*Polytope, 6)
	for i := range states {
		center := geom.Zero(3)
		for j := range center {
			center[j] = rng.Float64() * 10
		}
		verts := []geom.Point{center}
		for j := range center {
			v := center.Clone()
			v[j] += 2 * (rng.Float64() - 0.5)
			verts = append(verts, v)
		}
		var err error
		if states[i], err = New(verts, eps); err != nil {
			b.Fatal(err)
		}
	}
	round := func(states []*Polytope) []*Polytope {
		next := make([]*Polytope, len(states))
		for i := range states {
			others := append(append([]*Polytope(nil), states[:i]...), states[i+1:]...)
			var err error
			if next[i], err = Average(others, eps); err != nil {
				b.Fatal(err)
			}
		}
		return next
	}
	states = round(states)
	b.ResetTimer()
	var out []*Polytope
	for i := 0; i < b.N; i++ {
		out = round(states)
	}
	b.StopTimer()
	verts := 0
	for _, p := range out {
		verts += p.NumVertices()
	}
	b.ReportMetric(float64(verts)/float64(len(out)), "verts/state")
}

package hull

import (
	"math/rand"
	"testing"

	"chc/internal/geom"
)

// BenchmarkFacets3D enumerates the facets of the hull of 24 points uniform in
// [0,10)^3 (seed 19).
func BenchmarkFacets3D(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	pts := make([]geom.Point, 24)
	for i := range pts {
		pts[i] = geom.NewPoint(rng.Float64()*10, rng.Float64()*10, rng.Float64()*10)
	}
	verts, err := ConvexHull(pts, geom.DefaultEps)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Facets(verts, geom.DefaultEps); err != nil {
			b.Fatal(err)
		}
	}
}

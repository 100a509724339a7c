package core

import (
	"math/rand"
	"testing"

	"chc/internal/geom"
)

// BenchmarkInitialPolytopeN12F2D3 is the exponential round-0 kernel of the
// incorrect-inputs model: C(12,2) = 66 subset hulls in 3-D followed by their
// intersection (line 5 of Algorithm CC). Each op is one fresh point set,
// uniform in [0,10)^3 from seed i+7.
func BenchmarkInitialPolytopeN12F2D3(b *testing.B) {
	params := Params{
		N: 12, F: 2, D: 3,
		Epsilon:    0.5,
		InputLower: 0, InputUpper: 10,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i + 7)))
		xi := make([]geom.Point, params.N)
		for k := range xi {
			xi[k] = geom.NewPoint(rng.Float64()*10, rng.Float64()*10, rng.Float64()*10)
		}
		if _, err := InitialPolytope(params, xi); err != nil {
			b.Fatal(err)
		}
	}
}

package core

import (
	"math/rand"
	"testing"

	"chc/internal/geom"
)

// BenchmarkInitialPolytopeN12F2D3 is the round-0 kernel of the
// incorrect-inputs model in 3-D (line 5 of Algorithm CC) on a full view of
// |X| = 12 inputs: the depth halfspaces among the C(12,3) = 220 planes
// through three inputs, then one intersection.
func BenchmarkInitialPolytopeN12F2D3(b *testing.B) {
	benchInitialPolytope(b, Params{N: 12, F: 2, D: 3}, 12)
}

// BenchmarkInitialPolytopeN16F2D2 is the same kernel at the shape of the
// scale-n16 workload: n=16, f=2, d=2 on a view of |X| = n−f = 14 inputs.
func BenchmarkInitialPolytopeN16F2D2(b *testing.B) {
	benchInitialPolytope(b, Params{N: 16, F: 2, D: 2}, 14)
}

// benchInitialPolytope times InitialPolytope on views of size inputs. Each
// op is one fresh point set, uniform in [0,10)^d from seed i+7.
func benchInitialPolytope(b *testing.B, params Params, inputs int) {
	params.Epsilon, params.InputLower, params.InputUpper = 0.5, 0, 10
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i + 7)))
		xi := make([]geom.Point, inputs)
		for k := range xi {
			x := make(geom.Point, params.D)
			for j := range x {
				x[j] = rng.Float64() * 10
			}
			xi[k] = x
		}
		if _, err := InitialPolytope(params, xi); err != nil {
			b.Fatal(err)
		}
	}
}

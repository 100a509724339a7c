package core

import (
	"fmt"
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

// BenchmarkInitialPolytopeN6F1D3 is the kernel at the shape of the geom-cold
// workload, n=6, f=1, d=3, on both view sizes a process can get: |X| = n−f =
// 5, Lemma 2's bound, where the region is often a single Radon point, and
// |X| = n = 6.
func BenchmarkInitialPolytopeN6F1D3(b *testing.B) {
	for _, inputs := range []int{5, 6} {
		b.Run(fmt.Sprintf("X=%d", inputs), func(b *testing.B) {
			benchInitialPolytope(b, Params{N: 6, F: 1, D: 3}, inputs)
		})
	}
}

// BenchmarkInitialPolytopeN16F2D2 is the same kernel at the shape of the
// scale-n16 workload: n=16, f=2, d=2 on a view of |X| = n−f = 14 inputs.
func BenchmarkInitialPolytopeN16F2D2(b *testing.B) {
	benchInitialPolytope(b, Params{N: 16, F: 2, D: 2}, 14)
}

// benchInitialPolytope times InitialPolytope on views of size inputs. The
// views, uniform in [0,10)^d from seeds 7, 8, ..., are generated before the
// timer starts (seeding math/rand costs more than a small view's kernel),
// and the ops cycle through them.
func benchInitialPolytope(b *testing.B, params Params, inputs int) {
	params.Epsilon, params.InputLower, params.InputUpper = 0.5, 0, 10
	views := make([][]geom.Point, 64)
	for i := range views {
		rng := rand.New(rand.NewSource(int64(i + 7)))
		xi := make([]geom.Point, inputs)
		for k := range xi {
			x := make(geom.Point, params.D)
			for j := range x {
				x[j] = rng.Float64() * 10
			}
			xi[k] = x
		}
		views[i] = xi
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := InitialPolytope(params, views[i%len(views)]); err != nil {
			b.Fatal(err)
		}
	}
}

package hull

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"chc/internal/geom"
)

// TestClosedFormCofactorsMatchLU: in d = 2 and 3 generalizedCrossInto
// computes the cofactors in closed form (det1, det2), and its normal and
// verdict must be crossLU's, the LU cofactor expansion, bit for bit
// (math.Float64bits, so the sign of a zero counts). The edges are random,
// spread over the exponent range, and adversarial: entries at ±eps and one
// ulp either side, exact and negative zeros, subnormals, |a| = |c| pivot
// ties, and rank-deficient minors (the second edge a multiple of the first,
// or sharing a column with it). Each runs at eps = DefaultEps, at minPivot
// (beneathBeyond's) and at 0.
func TestClosedFormCofactorsMatchLU(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for _, eps := range []float64{geom.DefaultEps, minPivot, 0} {
		special := []float64{
			0, math.Copysign(0, -1), eps, -eps,
			math.Nextafter(eps, 1), -math.Nextafter(eps, 1),
			math.Nextafter(eps, 0), -math.Nextafter(eps, 0),
			math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
			0x1p-1030, -0x1p-1030, minPivot, -minPivot,
			1, -1, 0.5, -2, 3, 1e-9, 1e9,
		}
		entry := func() float64 {
			switch rng.Intn(4) {
			case 0:
				return special[rng.Intn(len(special))]
			case 1:
				return (rng.Float64()*2 - 1) * 10
			case 2:
				return math.Ldexp(rng.Float64()*2-1, rng.Intn(2100)-1075)
			default:
				return float64(rng.Intn(7) - 3) // small integers: ties and exact cancellations
			}
		}
		for d := 2; d <= 3; d++ {
			var lu facetScratch
			lu.prepare(d)
			closed, ref := geom.Zero(d), geom.Zero(d)
			edges := make([]geom.Point, d-1)
			for i := range edges {
				edges[i] = geom.Zero(d)
			}
			for trial := 0; trial < 200_000; trial++ {
				for _, e := range edges {
					for j := range e {
						e[j] = entry()
					}
				}
				if d == 3 {
					switch rng.Intn(6) {
					case 0: // rank-deficient: parallel edges
						l := entry()
						for j := range edges[1] {
							edges[1][j] = l * edges[0][j]
						}
					case 1: // a shared column: a tie or a cancellation in a minor
						j := rng.Intn(d)
						edges[1][j] = edges[0][j]
						if rng.Intn(2) == 0 {
							edges[1][j] = -edges[1][j]
						}
					}
				}
				got := generalizedCrossInto(closed, edges, lu.minor, &lu.ds, eps)
				want := crossLU(ref, edges, lu.minor, &lu.ds, eps) && ref.Norm() > eps
				same := got == want
				for j := range closed {
					same = same && math.Float64bits(closed[j]) == math.Float64bits(ref[j])
				}
				if !same {
					t.Fatalf("d=%d eps=%g edges %v: closed form %v (%v), LU %v (%v)", d, eps, edges, closed, got, ref, want)
				}
			}
		}
	}
}

// TestClipConcurrent runs ClipHull and ClipBox in four parallel subtests on
// 2-D and 3-D views, and each result must be the sequential one bit for
// bit: concurrent calls each take their own enumeration scratch and clipper
// from the pools, and a result shares no memory with a pooled buffer.
func TestClipConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type clip struct {
		pts  []geom.Point
		f    int
		want []geom.Point
	}
	var cases []clip
	for i := 0; i < 24; i++ {
		d := 2 + i%2
		c := clip{pts: randomCloud(rng, 5+i%4, d, 1), f: 1}
		c.want = ClipHull(c.pts, c.f, eps)
		cases = append(cases, c)
	}
	box := func(t *testing.T, c clip) []geom.Point {
		lo, hi, err := geom.BoundingBox(c.pts)
		if err != nil {
			t.Fatal(err)
		}
		return ClipBox(lo, hi, DepthHalfspaces(c.pts, c.f, eps), DataScale(c.pts), eps)
	}
	boxes := make([][]geom.Point, len(cases))
	for i, c := range cases {
		boxes[i] = box(t, c)
	}
	same := func(got, want []geom.Point) bool {
		if len(got) != len(want) {
			return false
		}
		for k := range got {
			if !geom.SameBits(got[k], want[k]) {
				return false
			}
		}
		return true
	}
	for w := 0; w < 4; w++ {
		t.Run(fmt.Sprint(w), func(t *testing.T) {
			t.Parallel()
			for rep := 0; rep < 20; rep++ {
				for i, c := range cases {
					if got := ClipHull(c.pts, c.f, eps); !same(got, c.want) {
						t.Fatalf("view %d: ClipHull gave %v, want %v", i, got, c.want)
					}
					if got := box(t, c); !same(got, boxes[i]) {
						t.Fatalf("view %d: ClipBox gave %v, want %v", i, got, boxes[i])
					}
				}
			}
		})
	}
}

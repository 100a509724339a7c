package polytope

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"chc/internal/geom"
	"chc/internal/hull"
)

// exactExcess is how far v lies outside the worst (|pts|−f)-subset hull, by
// the depth-0 halfspaces of every subset: the largest Normal·v − Offset over
// hull.DepthHalfspaces(C, 0, eps) of every C. No linear program is involved.
func exactExcess(pts []geom.Point, f int, verts []geom.Point) float64 {
	worst := 0.0
	excl := make([]int, f)
	var rec func(from, depth int)
	rec = func(from, depth int) {
		if depth == f {
			sub := make([]geom.Point, 0, len(pts)-f)
			for k, x := range pts {
				skip := false
				for _, e := range excl {
					skip = skip || e == k
				}
				if !skip {
					sub = append(sub, x)
				}
			}
			for _, h := range hull.DepthHalfspaces(sub, 0, eps) {
				for _, v := range verts {
					worst = max(worst, h.Eval(v))
				}
			}
			return
		}
		for k := from; k < len(pts); k++ {
			excl[depth] = k
			rec(k+1, depth+1)
		}
	}
	rec(0, 0)
	return worst
}

// checkDepthRegion holds DepthRegion(pts, f) to the exact oracle: no vertex
// more than bound·scale outside a subset hull, every vertex extreme, and a
// region at all when |pts| >= (d+1)f+1 (Lemma 2).
func checkDepthRegion(pts []geom.Point, f int, bound float64) error {
	scale := hull.DataScale(pts)
	got, err := DepthRegion(pts, f, eps)
	if errors.Is(err, ErrEmpty) {
		if d := pts[0].Dim(); len(pts) >= (d+1)*f+1 {
			return fmt.Errorf("empty at |X| = %d >= (d+1)f+1 = %d", len(pts), (d+1)*f+1)
		}
		return nil
	}
	if err != nil {
		return err
	}
	if ex := exactExcess(pts, f, got.verts); ex > bound*scale {
		return fmt.Errorf("a vertex lies %g outside a subset hull", ex)
	}
	return got.CheckExtreme(eps)
}

// regressionViews are views of the d = 3, f = 1 sweep (uniform [0,10)³
// points from rand.NewSource(7), |X| alternating 5 and 6) on which round 0
// went wrong: 8361 came back empty from a Chebyshev centre that violated
// three halfspaces, 45052 came back with a vertex 0.312 outside a subset
// hull, and 63042 came back empty from a clip of a box padded by 1.
var regressionViews = map[string][]geom.Point{
	"view 8361": {
		pt(8.3651628081342864, 4.4425845167796405, 7.295916938255381),
		pt(3.1726778383163099, 1.0687506291273936, 4.7195569407129376),
		pt(7.7472452708601383, 6.1931481051464035, 4.66899087995471),
		pt(5.9116807377961074, 6.4576901319255384, 2.0542075098461972),
		pt(5.4495903968421793, 7.2436305283118321, 5.8841516392675919),
		pt(5.0068461003126359, 8.154530694632097, 9.8691481648010697),
	},
	"view 45052": {
		pt(6.1972920178611366, 2.1675124492279969, 3.9985021955158651),
		pt(3.361696451616516, 6.028443756729339, 6.5281160002346308),
		pt(9.5478820860036802, 2.6169823880269121, 2.9048430974387611),
		pt(1.344486216279003, 7.883205172660638, 7.9902470094215339),
		pt(8.3107825600256842, 6.4390715145243647, 9.1971693329605824),
	},
	"view 63042": {
		pt(0.37627361297507922, 8.0979592850533049, 1.4855762748682948),
		pt(6.9187604301970218, 1.5917522871814205, 3.3353136571421471),
		pt(4.5354351298531279, 6.0051250595191865, 2.4692703207330506),
		pt(0.37069031915557021, 2.012252533969439, 2.0274417976425312),
		pt(7.5415695675231378, 7.059004904461287, 9.3169910368729667),
	},
}

func TestDepthRegionRegressionViews(t *testing.T) {
	for name, pts := range regressionViews {
		if err := checkDepthRegion(pts, 1, 1e-9); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// flatViews are near-degenerate views on which round 0 came back empty.
// "flat 2-D" and "flat 3-D" are three inputs at the origin and two 3.8e-9
// from it, in the plane and in the z = 0 plane of R³, which DepthRegion
// solves in 2-D. They span less than the clipper's tolerance 10·eps·scale,
// and the exact region is the origin. A polygon clip that decided sidedness
// at eps while the depth planes were chosen at 10·eps·scale lost it. In
// "near-collinear 2-D" inputs 0, 1 and 2 lie within the tolerance of one
// line, so the lines through 0 and 1 and through 0 and 2 both bound the
// region from both sides. They diverge by more than the tolerance across
// the hull, and slicing the hull by one and then the other left input 0,
// which lies outside the region.
var flatViews = map[string][]geom.Point{
	"flat 2-D": {pt(0, 0), pt(0, 0), pt(0, 0), pt(0, 3.7691172431497011e-09), pt(3.7691172431497011e-09, 0)},
	"flat 3-D": {pt(0, 0, 0), pt(0, 0, 0), pt(0, 0, 0), pt(0, 3.7691172431497011e-09, 0), pt(3.7691172431497011e-09, 0, 0)},
	"near-collinear 2-D": {
		pt(1.398043286095289e-76, 16.188235294117646), pt(0.00024605919333065256, 8.094117647058823),
		pt(0.0002470128676470588, 8.066773897058823), pt(16.188235294117646, 1.398043286095289e-76),
		pt(1.398043286095289e-76, 1.398043286095289e-76),
	},
}

// TestDepthRegionFlatInput: |X| = 5 >= (d+1)f+1 in d = 2 and 3, so the
// region is not empty (Lemma 2), and it lies within the kernel's tolerance
// of every subset hull; 1e-9·scale is out of reach where the input spans
// less than the tolerance.
func TestDepthRegionFlatInput(t *testing.T) {
	for name, pts := range flatViews {
		if err := checkDepthRegion(pts, 1, 10*eps); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// sweepViews draws count views of uniform [0,10)^d points from seed, |X|
// alternating n−f and n.
func sweepViews(seed int64, count, n, f, d int) [][]geom.Point {
	rng := rand.New(rand.NewSource(seed))
	views := make([][]geom.Point, count)
	for i := range views {
		k := n - f + f*(i%2)
		views[i] = uniformPts(rng, k, d)
	}
	return views
}

// TestDepthRegionExactOracleSweep runs checkDepthRegion over seed-7 views at
// the resilience bound n = (d+2)f+1 in d = 2, 3 and 4, |X| = n−f (Lemma 2's
// bound, where the region is often a Radon point) and |X| = n, and at
// scale-n16's shape (16, 2, 2).
func TestDepthRegionExactOracleSweep(t *testing.T) {
	for _, c := range []struct{ n, f, d, views int }{
		{5, 1, 2, 6000}, {9, 2, 2, 1000}, {16, 2, 2, 300},
		{6, 1, 3, 6000}, {7, 1, 4, 600}, {11, 2, 3, 150},
	} {
		for i, pts := range sweepViews(7, c.views, c.n, c.f, c.d) {
			if err := checkDepthRegion(pts, c.f, 1e-9); err != nil {
				t.Errorf("(%d,%d,%d) view %d: %v", c.n, c.f, c.d, i, err)
			}
		}
	}
}

// FuzzDepthRegion: 5 to 7 points with f = 1, held to the exact oracle and
// CheckExtreme, and non-empty from |X| = (d+1)f+1 on (Lemma 2). The input
// is little-endian float64 coordinates; its length picks d: 80 to 112 bytes
// are 16 bytes a point in d = 2, and 120 to 168 bytes 24 bytes a point in
// d = 3. The d = 3 inputs keep the general-position margin the geom-cold
// benchmark draws with: every four points span a tetrahedron with |det| of
// at least 3e-3·scale³. Nearer to degenerate, deviations below the
// tolerance decide which planes bound the region and where its vertices
// fall, which float predicates cannot settle (ROADMAP item 1(b)). The d = 2
// inputs have no such margin. A vertex may lie outside by DepthHalfspaces'
// tolerance, 10·eps·scale, but no more.
func FuzzDepthRegion(f *testing.F) {
	views := [][]geom.Point{flatViews["flat 2-D"]} // the flat 3-D view has no margin
	for _, pts := range regressionViews {
		views = append(views, pts)
	}
	for _, pts := range views {
		var data []byte
		for _, p := range pts {
			for _, c := range p {
				data = binary.LittleEndian.AppendUint64(data, math.Float64bits(c))
			}
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var d int
		switch n := len(data); {
		case n >= 80 && n <= 112:
			d = 2
		case n >= 120 && n <= 168:
			d = 3
		default:
			t.Skip()
		}
		pts := make([]geom.Point, len(data)/(8*d))
		for i := range pts {
			p := geom.Zero(d)
			for j := range p {
				p[j] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*(d*i+j):]))
			}
			if !p.IsFinite() || p.NormInf() > 1e3 {
				t.Skip()
			}
			pts[i] = p
		}
		if d == 3 && minTetDet(pts) < 3e-3*math.Pow(hull.DataScale(pts), 3) {
			t.Skip()
		}
		if err := checkDepthRegion(pts, 1, 10*eps); err != nil {
			t.Fatal(err)
		}
	})
}

// minTetDet is the smallest |det(b−a, c−a, e−a)| over four points of pts in
// R³, six times the volume of their tetrahedron.
func minTetDet(pts []geom.Point) float64 {
	least := math.Inf(1)
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			for k := j + 1; k < len(pts); k++ {
				for l := k + 1; l < len(pts); l++ {
					u, v, w := pts[j].Sub(pts[i]), pts[k].Sub(pts[i]), pts[l].Sub(pts[i])
					det := u[0]*(v[1]*w[2]-v[2]*w[1]) - u[1]*(v[0]*w[2]-v[2]*w[0]) + u[2]*(v[0]*w[1]-v[1]*w[0])
					least = min(least, math.Abs(det))
				}
			}
		}
	}
	return least
}

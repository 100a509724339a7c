package hull

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"chc/internal/geom"
	"chc/internal/lp"
	"chc/internal/telemetry"
)

// lpPerPointKeep is the extreme-point test ExtremeFilter ran before frame
// growth, kept as the oracle: one membership LP per point against all the
// other points. uniq must be distinct at eps.
func lpPerPointKeep(uniq []geom.Point, eps float64) ([]bool, error) {
	keep := make([]bool, len(uniq))
	ws := lp.NewWorkspace()
	for i := range uniq {
		others := make([][]float64, 0, len(uniq)-1)
		for j, q := range uniq {
			if j != i {
				others = append(others, q)
			}
		}
		_, err := lp.ConvexWeightsWith(ws, others, uniq[i], eps)
		switch {
		case err == nil:
		case errors.Is(err, lp.ErrInfeasible):
			keep[i] = true
		default:
			return nil, fmt.Errorf("oracle: point %d: %w", i, err)
		}
	}
	return keep, nil
}

// keptFlags recovers keep[] from a filter's output, which lists the vertices
// among uniq in input order.
func keptFlags(uniq, verts []geom.Point) ([]bool, error) {
	keep := make([]bool, len(uniq))
	next := 0
	for i, p := range uniq {
		if next < len(verts) && bitsEqual(verts[next], p) {
			keep[i] = true
			next++
		}
	}
	if next != len(verts) {
		return nil, fmt.Errorf("filter returned %d points that are not inputs in input order", len(verts)-next)
	}
	return keep, nil
}

// oracleDiff is one differential run: the points only the frame filter
// keeps, the points only the oracle keeps, and both vertex sets.
type oracleDiff struct {
	newOnly, oracleOnly []geom.Point
	verts, oracleVerts  []geom.Point
}

// diffAgainstOracle runs both filters on pts. An error is the LP's (a pivot
// limit on an ill-conditioned tableau), from either side.
func diffAgainstOracle(pts []geom.Point) (oracleDiff, error) {
	var d oracleDiff
	uniq := geom.Dedup(pts, eps)
	if len(uniq) <= 2 {
		return d, nil // both sides return the input
	}
	keep, err := lpPerPointKeep(uniq, eps)
	if err != nil {
		return d, err
	}
	if d.verts, err = extremeFilter(uniq, eps); err != nil {
		return d, err
	}
	got, err := keptFlags(uniq, d.verts)
	if err != nil {
		return d, err
	}
	for i, p := range uniq {
		if keep[i] {
			d.oracleVerts = append(d.oracleVerts, p)
		}
		switch {
		case got[i] && !keep[i]:
			d.newOnly = append(d.newOnly, p)
		case !got[i] && keep[i]:
			d.oracleOnly = append(d.oracleOnly, p)
		}
	}
	return d, nil
}

func bitsEqual(a, b geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func randomCloud(rng *rand.Rand, m, d int, scale float64) []geom.Point {
	pts := make([]geom.Point, m)
	for i := range pts {
		p := make(geom.Point, d)
		for c := range p {
			p[c] = scale * (rng.Float64()*20 - 10)
		}
		pts[i] = p
	}
	return pts
}

// pairwiseSums is the candidate set of one combineND step: every sum of a
// vertex of a and a vertex of b.
func pairwiseSums(a, b []geom.Point) []geom.Point {
	sums := make([]geom.Point, 0, len(a)*len(b))
	for _, u := range a {
		for _, v := range b {
			sums = append(sums, u.Add(v))
		}
	}
	return sums
}

// combination is L(polys; weights) the way polytope.combineND computes it.
func combination(t *testing.T, polys [][]geom.Point, weights []float64) []geom.Point {
	t.Helper()
	cur := ScalePolygon(polys[0], weights[0])
	for i, p := range polys[1:] {
		var err error
		if cur, err = ConvexHull(pairwiseSums(cur, ScalePolygon(p, weights[i+1])), eps); err != nil {
			t.Fatal(err)
		}
	}
	return cur
}

// excess returns how far p lies outside conv(verts), measured against the
// brute-force facets of verts and not by an LP: the solver's verdict is what
// is in question where this is used.
func excess(t *testing.T, verts []geom.Point, p geom.Point) float64 {
	t.Helper()
	facets, err := Facets(verts, eps)
	if err != nil {
		t.Fatal(err)
	}
	worst := math.Inf(-1)
	for _, f := range facets {
		worst = math.Max(worst, f.Eval(p))
	}
	return worst
}

// TestExtremeFilterMatchesLPPerPoint is the contract of the frame filter: on
// every input family the consensus rounds produce, and on the degenerate
// ones they might, it keeps exactly the points the LP-per-point loop keeps.
func TestExtremeFilterMatchesLPPerPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	calls := 0
	check := func(name string, pts []geom.Point) {
		t.Helper()
		calls++
		d, err := diffAgainstOracle(pts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := len(d.newOnly) + len(d.oracleOnly); n > 0 {
			t.Errorf("%s: %d of %d points classified differently (%d only by the frame filter)", name, n, len(pts), len(d.newOnly))
		}
	}

	for _, d := range []int{3, 4, 5} {
		for trial := 0; trial < 25; trial++ {
			m := 5 + rng.Intn(116)
			check(fmt.Sprintf("cloud d=%d m=%d", d, m), randomCloud(rng, m, d, 1))
		}
		// Fewer points than a simplex with an interior point needs.
		for m := 3; m < d+2; m++ {
			check(fmt.Sprintf("small d=%d m=%d", d, m), randomCloud(rng, m, d, 1))
		}
		// eps is absolute: loose at 1e-6, below the coordinates' roundoff at
		// 1e6 (the next test).
		for _, scale := range []float64{1e-6, 1e3} {
			for trial := 0; trial < 10; trial++ {
				check(fmt.Sprintf("cloud d=%d scale=%g", d, scale), randomCloud(rng, 10+rng.Intn(40), d, scale))
			}
		}
	}

	// The late-round regime: every state of a round is a combination of the
	// same n-f round-0 polytopes, and late states differ only in weights that
	// have almost converged. One step of the next combineND takes every
	// pairwise sum of two such states: near-coincident candidates, and edge-
	// and face-interior ones wherever the two states share a normal.
	// (Two round-0 simplices, not five polytopes: a generic sum's vertex
	// count multiplies and the oracle is quadratic in the candidates.)
	for _, d := range []int{3, 4} {
		base := [][]geom.Point{randomCloud(rng, d+1, d, 1), randomCloud(rng, d+1, d, 1)}
		for exp := 3; exp <= 12; exp++ {
			for trial := 0; trial < 3; trial++ {
				wa, wb := make([]float64, len(base)), make([]float64, len(base))
				var sa, sb float64
				for i := range wa {
					wa[i] = 0.1 + rng.Float64()
					wb[i] = wa[i] + math.Pow(10, -float64(exp))*(rng.Float64()*2-1)
					sa, sb = sa+wa[i], sb+wb[i]
				}
				for i := range wa {
					wa[i], wb[i] = wa[i]/sa, wb[i]/sb
				}
				a, b := combination(t, base, wa), combination(t, base, wb)
				check(fmt.Sprintf("late round d=%d delta=1e-%d", d, exp),
					pairwiseSums(ScalePolygon(a, 0.5), ScalePolygon(b, 0.5)))
			}
		}
	}

	// Cube corners plus face midpoints, edge midpoints and the centre: every
	// coordinate extreme is tied, so which points seed the frame is a matter
	// of input order and the final pass must drop the non-vertices.
	var cube []geom.Point
	for _, x := range []float64{0, 0.5, 1} {
		for _, y := range []float64{0, 0.5, 1} {
			for _, z := range []float64{0, 0.5, 1} {
				cube = append(cube, pt(x, y, z))
			}
		}
	}
	check("cube lattice", cube)
	for trial := 0; trial < 20; trial++ {
		rng.Shuffle(len(cube), func(i, j int) { cube[i], cube[j] = cube[j], cube[i] })
		check("cube lattice shuffled", cube)
	}

	// Affinely degenerate sets in 3-D: coplanar and collinear.
	for trial := 0; trial < 10; trial++ {
		frame := randomCloud(rng, 3, 3, 1)
		o, e1, e2 := frame[0], frame[1], frame[2]
		var plane, line []geom.Point
		for k := 0; k < 25; k++ {
			s, u := rng.Float64(), rng.Float64()
			plane = append(plane, o.Add(e1.Scale(s)).Add(e2.Scale(u)))
			line = append(line, o.Add(e1.Scale(s)))
		}
		check("coplanar", plane)
		check("collinear", line)
	}
	t.Logf("%d calls", calls)
}

// TestExtremeFilterScaledUp: with coordinates of 1e7 the absolute eps is the
// last bit of a coordinate, no verdict near the boundary is better than
// roundoff, and the LP-per-point loop itself — more columns per tableau, more
// digits lost — keeps a non-vertex in about one cloud in twenty-five. Random
// clouds have no point that close to the boundary, so the reference is the
// loop's answer on the cloud before scaling, and the frame filter must err on
// no more clouds than the loop does.
func TestExtremeFilterScaledUp(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	wrong := func(keep, truth []bool) int {
		for i := range keep {
			if keep[i] != truth[i] {
				return 1
			}
		}
		return 0
	}
	clouds, frameWrong, loopWrong := 0, 0, 0
	for _, d := range []int{3, 4, 5} {
		for trial := 0; trial < 60; trial++ {
			unit := randomCloud(rng, 5+rng.Intn(80), d, 1)
			scaled := ScalePolygon(unit, 1e6)
			truth, err := lpPerPointKeep(unit, eps)
			if err != nil {
				t.Fatal(err)
			}
			loop, err := lpPerPointKeep(scaled, eps)
			if err != nil {
				t.Fatal(err)
			}
			verts, err := extremeFilter(scaled, eps)
			if err != nil {
				t.Fatal(err)
			}
			frame, err := keptFlags(scaled, verts)
			if err != nil {
				t.Fatal(err)
			}
			clouds++
			frameWrong += wrong(frame, truth)
			loopWrong += wrong(loop, truth)
		}
	}
	t.Logf("%d clouds at 1e6: frame filter off the unscaled answer on %d, LP-per-point loop on %d", clouds, frameWrong, loopWrong)
	if frameWrong > loopWrong {
		t.Errorf("frame filter wrong on %d clouds, the LP-per-point loop on %d", frameWrong, loopWrong)
	}
}

// TestExtremeFilterUnstableVerdicts covers inputs no consensus round
// produces: a 3-D polytope summed with a copy whose vertices were moved
// independently by 1e-4 … 1e-8. Near-twin columns a few tolerances apart
// make the membership tableau ill-conditioned, and the solver's
// "infeasible" — the only verdict without a certificate — then depends on
// the pivot path: the LP-per-point loop disagrees with itself on the same
// points in reversed column order, and either filter can hit the pivot
// limit. Identical keep[] is not defined there. What must still hold is that
// both sides describe the same polytope: a point only one side keeps lies
// within 1e-6 of the hull of the other side's vertices (coordinates span 20;
// the solver's weights are non-negative only to its tolerance).
func TestExtremeFilterUnstableVerdicts(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	calls, lpErrs, oneSided, worst := 0, 0, 0, 0.0
	for exp := 4; exp <= 8; exp++ {
		for trial := 0; trial < 10; trial++ {
			a, err := ExtremeFilter(randomCloud(rng, 12, 3, 1), eps)
			if err != nil {
				t.Fatal(err)
			}
			b := make([]geom.Point, len(a))
			for i, p := range a {
				b[i] = p.Add(randomCloud(rng, 1, 3, math.Pow(10, -float64(exp))/10)[0])
			}
			calls++
			diff, err := diffAgainstOracle(pairwiseSums(ScalePolygon(a, 0.5), ScalePolygon(b, 0.5)))
			if err != nil {
				lpErrs++
				continue
			}
			oneSided += len(diff.newOnly) + len(diff.oracleOnly)
			for _, p := range diff.newOnly {
				worst = math.Max(worst, excess(t, diff.oracleVerts, p))
			}
			for _, p := range diff.oracleOnly {
				worst = math.Max(worst, excess(t, diff.verts, p))
			}
		}
	}
	t.Logf("%d calls, %d abandoned on an LP error, %d one-sided points, at most %.2g outside the other side's hull", calls, lpErrs, oneSided, worst)
	if worst > 1e-6 {
		t.Errorf("a point kept by one filter only lies %g outside the other's hull, want <= 1e-6", worst)
	}
}

// TestExtremeFilterConcurrent shares extremePool's scratch across goroutines
// (co-hosted processes hull their round-0 subsets at the same time): every
// goroutine must get the answer the sequential call gets. Meaningful under
// -race.
func TestExtremeFilterConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inputs := make([][]geom.Point, 8)
	want := make([][]geom.Point, len(inputs))
	for i := range inputs {
		inputs[i] = randomCloud(rng, 30+5*i, 3, 1)
		var err error
		if want[i], err = ExtremeFilter(inputs[i], eps); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				for i, in := range inputs {
					got, err := ExtremeFilter(in, eps)
					if err != nil {
						t.Error(err)
						return
					}
					if len(got) != len(want[i]) {
						t.Errorf("input %d: %d vertices, want %d", i, len(got), len(want[i]))
						return
					}
					for k := range got {
						if !bitsEqual(got[k], want[i][k]) {
							t.Errorf("input %d vertex %d differs", i, k)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkExtremeFilterMinkowski3D is one combineND step: the 64 pairwise
// sums of two 8-vertex polytopes, hulled. lp-columns/op is the size of the
// LP work, which the solve count alone does not show.
func BenchmarkExtremeFilterMinkowski3D(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	polytope8 := func() []geom.Point {
		for {
			v, err := ExtremeFilter(randomCloud(rng, 9, 3, 1), eps)
			if err != nil {
				b.Fatal(err)
			}
			if len(v) == 8 {
				return v
			}
		}
	}
	sums := pairwiseSums(ScalePolygon(polytope8(), 0.5), ScalePolygon(polytope8(), 0.5))

	reg := telemetry.Default()
	defer reg.SetEnabled(reg.SetEnabled(true))
	columns := func() float64 { return reg.Snapshot().Find("chc_lp_columns_total").Total() }
	before := columns()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ConvexHull(sums, eps); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric((columns()-before)/float64(b.N), "lp-columns/op")
}

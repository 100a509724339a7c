package polytope

// Radon and Tverberg partitions, the constructive core of Lemma 2 of the
// paper (Appendix B): any multiset of at least (d+1)f + 1 points in R^d
// splits into f+1 non-empty parts whose convex hulls share a point, which
// is why the round-0 intersection h_i[0] of Algorithm CC is never empty.
// A Tverberg point lies in every (|X|−f)-subset hull, since such a subset
// misses at most f parts and so contains one whole part. Round 0 needs no
// such point; these tests use one as an independent witness that
// DepthRegion is not empty where Lemma 2 says it cannot be.
//
// For f = 1 the partition is computed exactly via Radon's theorem: any d+2
// points admit an affine dependence Σλᵢpᵢ = 0, Σλᵢ = 0 with λ ≠ 0, and
// splitting by the sign of λ yields two parts whose hulls meet in the
// explicitly computable Radon point. For f >= 2 a bounded search over
// partitions of the small point sets used here is certified by Intersect.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"chc/internal/geom"
)

// errNotEnoughPoints is returned when fewer than (d+1)f + 1 points are
// supplied (Tverberg's bound is tight: below it partitions may not exist).
var errNotEnoughPoints = errors.New("tverberg: not enough points")

// errNoPartition is returned when the bounded search fails (possible only
// for degenerate inputs at the search size limit).
var errNoPartition = errors.New("tverberg: no partition found")

// partition is a Tverberg partition: parts whose convex hulls all contain
// witness.
type partition struct {
	parts   [][]geom.Point
	witness geom.Point
}

// radon computes a Radon partition of d+2 (or more — extras are ignored)
// points in d dimensions: two parts whose convex hulls share the returned
// witness point.
func radon(pts []geom.Point, eps float64) (*partition, error) {
	if len(pts) == 0 {
		return nil, errNotEnoughPoints
	}
	d := pts[0].Dim()
	if len(pts) < d+2 {
		return nil, fmt.Errorf("%w: need %d points in %d-D, got %d", errNotEnoughPoints, d+2, d, len(pts))
	}
	use := pts[:d+2]
	lambda, err := affineDependence(use, eps)
	if err != nil {
		return nil, err
	}
	var pos, neg []geom.Point
	var posSum float64
	witness := geom.Zero(d)
	for i, l := range lambda {
		switch {
		case l > eps:
			pos = append(pos, use[i])
			witness = witness.AddScaled(l, use[i])
			posSum += l
		default:
			// A zero coefficient marks a redundant point; it joins the
			// negative part, which keeps both parts non-empty when possible.
			neg = append(neg, use[i])
		}
	}
	if posSum <= eps || len(pos) == 0 || len(neg) == 0 {
		return nil, errNoPartition
	}
	return &partition{parts: [][]geom.Point{pos, neg}, witness: witness.Scale(1 / posSum)}, nil
}

// affineDependence finds λ ≠ 0 with Σλᵢpᵢ = 0 and Σλᵢ = 0 for d+2 points
// in d dimensions. It fixes one coefficient at 1, moves its column to the
// right-hand side and solves the (d+1) × (d+1) system, trying each index in
// turn while the system is singular.
func affineDependence(pts []geom.Point, eps float64) ([]float64, error) {
	d := pts[0].Dim()
	k := len(pts)
	for fixed := k - 1; fixed >= 0; fixed-- {
		a := geom.NewMatrix(d+1, k-1)
		rhs := make([]float64, d+1)
		col := 0
		for j := 0; j < k; j++ {
			if j == fixed {
				continue
			}
			for r := 0; r < d; r++ {
				a.Set(r, col, pts[j][r])
			}
			a.Set(d, col, 1)
			col++
		}
		for r := 0; r < d; r++ {
			rhs[r] = -pts[fixed][r]
		}
		rhs[d] = -1
		sol, err := geom.Solve(a, rhs, eps)
		if err != nil {
			continue
		}
		lambda := make([]float64, k)
		col = 0
		for j := 0; j < k; j++ {
			if j == fixed {
				lambda[j] = 1
				continue
			}
			lambda[j] = sol[col]
			col++
		}
		return lambda, nil
	}
	return nil, errNoPartition
}

// findTverberg computes a Tverberg partition of the points into f+1 parts
// with a common witness. f = 1 uses the exact Radon construction; larger f
// searches partitions of the first (at most 12) points. At least (d+1)f + 1
// points are required.
func findTverberg(pts []geom.Point, f int, eps float64) (*partition, error) {
	if f < 1 {
		return nil, fmt.Errorf("tverberg: need f >= 1, got %d", f)
	}
	if len(pts) == 0 {
		return nil, errNotEnoughPoints
	}
	d := pts[0].Dim()
	if need := (d+1)*f + 1; len(pts) < need {
		return nil, fmt.Errorf("%w: need %d points for d=%d f=%d, got %d", errNotEnoughPoints, need, d, f, len(pts))
	}
	if f == 1 {
		return radon(pts, eps)
	}
	const maxPoints = 12 // keeps the search over f+1 parts tractable
	use := pts[:min(len(pts), maxPoints)]
	return searchPartitions(use, make([][]geom.Point, f+1), 0, eps)
}

// searchPartitions assigns points to parts depth-first and certifies the
// common intersection of the parts' hulls at the leaves.
func searchPartitions(pts []geom.Point, parts [][]geom.Point, idx int, eps float64) (*partition, error) {
	if idx == len(pts) {
		polys := make([]*Polytope, 0, len(parts))
		for _, part := range parts {
			if len(part) == 0 {
				return nil, errNoPartition
			}
			p, err := New(part, eps)
			if err != nil {
				return nil, errNoPartition
			}
			polys = append(polys, p)
		}
		inter, err := Intersect(polys, eps)
		if err != nil {
			return nil, errNoPartition
		}
		witness, err := inter.Centroid()
		if err != nil {
			return nil, errNoPartition
		}
		out := make([][]geom.Point, len(parts))
		for i := range parts {
			out[i] = append([]geom.Point(nil), parts[i]...)
		}
		return &partition{parts: out, witness: witness}, nil
	}
	// Prune symmetric assignments: point idx may open only the first empty
	// part, not any of them.
	for part := range parts {
		opens := len(parts[part]) == 0
		parts[part] = append(parts[part], pts[idx])
		res, err := searchPartitions(pts, parts, idx+1, eps)
		parts[part] = parts[part][:len(parts[part])-1]
		if err == nil {
			return res, nil
		}
		if opens {
			break
		}
	}
	return nil, errNoPartition
}

// verifyPartition checks that a partition is a genuine Tverberg partition:
// parts are non-empty and the witness lies in every part's convex hull
// (within tol).
func verifyPartition(p *partition, tol float64) error {
	if p == nil || len(p.parts) < 2 {
		return errors.New("tverberg: malformed partition")
	}
	for i, part := range p.parts {
		if len(part) == 0 {
			return fmt.Errorf("tverberg: part %d is empty", i)
		}
		poly, err := New(part, geom.DefaultEps)
		if err != nil {
			return err
		}
		d, err := poly.Distance(p.witness, geom.DefaultEps)
		if err != nil {
			return err
		}
		if d > tol {
			return fmt.Errorf("tverberg: witness at distance %v from part %d", d, i)
		}
	}
	return nil
}

func TestRadonSquare(t *testing.T) {
	// Four points in the plane: the two diagonals cross at (0.5, 0.5).
	pts := []geom.Point{pt(0, 0), pt(1, 1), pt(1, 0), pt(0, 1)}
	p, err := radon(pts, eps)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyPartition(p, 1e-6); err != nil {
		t.Fatal(err)
	}
	if !geom.Equal(p.witness, pt(0.5, 0.5), 1e-6) {
		t.Errorf("witness = %v, want (0.5, 0.5)", p.witness)
	}
}

func TestRadonTriangleWithInterior(t *testing.T) {
	// Triangle plus an interior point: partition = {interior} vs triangle.
	pts := []geom.Point{pt(0, 0), pt(4, 0), pt(0, 4), pt(1, 1)}
	p, err := radon(pts, eps)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyPartition(p, 1e-6); err != nil {
		t.Fatal(err)
	}
	// The witness must be the interior point itself.
	if !geom.Equal(p.witness, pt(1, 1), 1e-6) {
		t.Errorf("witness = %v, want (1, 1)", p.witness)
	}
}

func TestRadon1D(t *testing.T) {
	pts := []geom.Point{pt(0), pt(10), pt(4)}
	p, err := radon(pts, eps)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyPartition(p, 1e-6); err != nil {
		t.Fatal(err)
	}
}

func TestRadonTooFew(t *testing.T) {
	if _, err := radon([]geom.Point{pt(0, 0), pt(1, 1)}, eps); !errors.Is(err, errNotEnoughPoints) {
		t.Errorf("err = %v, want errNotEnoughPoints", err)
	}
	if _, err := radon(nil, eps); !errors.Is(err, errNotEnoughPoints) {
		t.Errorf("err = %v, want errNotEnoughPoints", err)
	}
}

func TestFindF2D1(t *testing.T) {
	// d=1, f=2: (d+1)f+1 = 5 points into 3 parts with a common point.
	pts := []geom.Point{pt(0), pt(1), pt(2), pt(3), pt(4)}
	p, err := findTverberg(pts, 2, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.parts) != 3 {
		t.Fatalf("%d parts, want 3", len(p.parts))
	}
	if err := verifyPartition(p, 1e-6); err != nil {
		t.Fatal(err)
	}
}

func TestFindF2D2(t *testing.T) {
	// d=2, f=2: 7 points into 3 parts.
	rng := rand.New(rand.NewSource(2))
	pts := make([]geom.Point, 7)
	for i := range pts {
		pts[i] = pt(rng.Float64()*10, rng.Float64()*10)
	}
	p, err := findTverberg(pts, 2, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.parts) != 3 {
		t.Fatalf("%d parts, want 3", len(p.parts))
	}
	if err := verifyPartition(p, 1e-5); err != nil {
		t.Fatal(err)
	}
}

func TestFindValidation(t *testing.T) {
	if _, err := findTverberg([]geom.Point{pt(0)}, 0, eps); err == nil {
		t.Error("f=0 should error")
	}
	if _, err := findTverberg(nil, 1, eps); !errors.Is(err, errNotEnoughPoints) {
		t.Errorf("err = %v", err)
	}
	if _, err := findTverberg([]geom.Point{pt(0, 0), pt(1, 0)}, 1, eps); !errors.Is(err, errNotEnoughPoints) {
		t.Errorf("err = %v", err)
	}
}

func TestVerifyRejectsBogus(t *testing.T) {
	bogus := &partition{
		parts:   [][]geom.Point{{pt(0, 0)}, {pt(5, 5)}},
		witness: pt(0, 0),
	}
	if err := verifyPartition(bogus, 1e-6); err == nil {
		t.Error("witness outside a part should be rejected")
	}
	if err := verifyPartition(nil, 1e-6); err == nil {
		t.Error("nil partition should be rejected")
	}
	if err := verifyPartition(&partition{parts: [][]geom.Point{{}, {pt(1)}}, witness: pt(1)}, 1e-6); err == nil {
		t.Error("empty part should be rejected")
	}
}

// Property (Radon's theorem): every generic set of d+2 points in dimension
// d in {1,2,3} admits a verified Radon partition.
func TestRadonProperty(t *testing.T) {
	f := func(seed int64, dRaw uint8) bool {
		d := 1 + int(dRaw)%3
		rng := rand.New(rand.NewSource(seed))
		pts := make([]geom.Point, d+2)
		for i := range pts {
			p := make(geom.Point, d)
			for j := range p {
				p[j] = rng.Float64()*10 - 5
			}
			pts[i] = p
		}
		part, err := radon(pts, eps)
		if err != nil {
			return false
		}
		return verifyPartition(part, 1e-5) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestWitnessInsideRound0Intersection (Lemma 2, constructively): for
// uniform [0,10)^d views X with |X| = (d+1)f+1, the bound of eq. (2), a
// verified Tverberg point of X lies in DepthRegion(X, f) to 1e-9·scale.
// Membership is read off the region's facets: Wolfe's min-norm distance
// puts some of these witnesses, which every facet holds, up to 1.6e-5
// outside in d = 3.
func TestWitnessInsideRound0Intersection(t *testing.T) {
	for _, c := range []struct{ d, f, views int }{
		{2, 1, 1500}, {2, 2, 300}, {3, 1, 1200}, {3, 2, 60},
	} {
		rng := rand.New(rand.NewSource(int64(10*c.d + c.f)))
		worst := 0.0
		for i := 0; i < c.views; i++ {
			pts := uniformPts(rng, (c.d+1)*c.f+1, c.d)
			part, err := findTverberg(pts, c.f, eps)
			if err != nil {
				t.Fatalf("(d=%d, f=%d) view %d: %v", c.d, c.f, i, err)
			}
			if err := verifyPartition(part, 1e-5); err != nil {
				t.Fatalf("(d=%d, f=%d) view %d: %v", c.d, c.f, i, err)
			}
			h0, err := DepthRegion(pts, c.f, eps)
			if err != nil {
				t.Fatalf("(d=%d, f=%d) view %d: %v", c.d, c.f, i, err)
			}
			facets, err := h0.Facets(eps)
			if err != nil {
				t.Fatal(err)
			}
			excess := 0.0
			for _, h := range facets {
				excess = max(excess, h.Eval(part.witness))
			}
			if excess > 1e-9*dataScale(pts) {
				t.Errorf("(d=%d, f=%d) view %d: witness %v lies %g outside h[0]", c.d, c.f, i, part.witness, excess)
			}
			worst = max(worst, excess)
		}
		t.Logf("(d=%d, f=%d): %d views, worst witness excess %.2g", c.d, c.f, c.views, worst)
	}
}

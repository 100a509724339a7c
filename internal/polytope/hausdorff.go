package polytope

import (
	"errors"
	"fmt"
	"math"

	"chc/internal/geom"
	"chc/internal/hull"
)

// Hausdorff returns the Hausdorff distance d_H(a, b) of equation (1):
//
//	max{ max_{p in a} min_{q in b} d_E(p, q),  max_{q in b} min_{p in a} d_E(p, q) }.
//
// Because the distance-to-a-convex-set function is convex, each directed
// maximum is attained at a vertex, so the computation reduces to projecting
// each vertex of one polytope onto the other.
func Hausdorff(a, b *Polytope, eps float64) (float64, error) {
	if len(a.verts) == 0 || len(b.verts) == 0 {
		return 0, ErrEmpty
	}
	d1, err := DirectedHausdorff(a, b, eps)
	if err != nil {
		return 0, err
	}
	d2, err := DirectedHausdorff(b, a, eps)
	if err != nil {
		return 0, err
	}
	return maxFinite(d1, d2), nil
}

// DirectedHausdorff returns max_{p in a} min_{q in b} d_E(p, q). A NaN
// distance is kept rather than dropped, so callers see it.
func DirectedHausdorff(a, b *Polytope, eps float64) (float64, error) {
	if len(a.verts) == 0 || len(b.verts) == 0 {
		return 0, ErrEmpty
	}
	var worst float64
	for _, v := range a.verts {
		d, err := b.Distance(v, eps)
		if err != nil {
			return 0, err
		}
		if d > worst || math.IsNaN(d) {
			worst = d
		}
	}
	return worst, nil
}

// Distance returns the Euclidean distance from q to the polytope (zero when
// q is inside).
func (p *Polytope) Distance(q geom.Point, eps float64) (float64, error) {
	switch {
	case len(p.verts) == 0:
		return 0, ErrEmpty
	case len(p.verts) == 1:
		return geom.Dist(q, p.verts[0]), nil
	case p.Dim() == 1:
		lo, hi, err := p.BoundingBox()
		if err != nil {
			return 0, err
		}
		switch {
		case q[0] < lo[0]:
			return lo[0] - q[0], nil
		case q[0] > hi[0]:
			return q[0] - hi[0], nil
		default:
			return 0, nil
		}
	case p.Dim() == 2:
		return hull.DistPointPolygon(q, p.verts, eps), nil
	default:
		_, d, err := minNormPoint(p.verts, q, eps)
		return d, err
	}
}

// Nearest returns the point of the polytope closest to q.
func (p *Polytope) Nearest(q geom.Point, eps float64) (geom.Point, error) {
	if len(p.verts) == 0 {
		return nil, ErrEmpty
	}
	pt, _, err := minNormPoint(p.verts, q, eps)
	return pt, err
}

const maxWolfeIters = 10000

// minNormPoint computes the projection of q onto conv(verts) using Wolfe's
// minimum-norm-point algorithm (Wolfe 1976), shifted so that q is the
// origin. It returns the nearest point and its distance to q.
func minNormPoint(verts []geom.Point, q geom.Point, eps float64) (geom.Point, float64, error) {
	// Shift so q is at the origin.
	pts := make([]geom.Point, len(verts))
	for i, v := range verts {
		pts[i] = v.Sub(q)
	}
	// Start from the closest single vertex.
	best := 0
	for i := 1; i < len(pts); i++ {
		if pts[i].Norm() < pts[best].Norm() {
			best = i
		}
	}
	corral := []int{best}
	lambda := []float64{1}
	x := pts[best].Clone()

	scale := 1.0
	for _, p := range pts {
		if m := p.NormInf(); m > scale {
			scale = m
		}
	}
	tol := eps * scale * 10

	for iter := 0; iter < maxWolfeIters; iter++ {
		// Optimality: x is the min-norm point iff x·p >= x·x - tol for all p.
		xx := x.Dot(x)
		enter := -1
		bestGap := -tol
		for i, p := range pts {
			if gap := x.Dot(p) - xx; gap < bestGap {
				bestGap, enter = gap, i
			}
		}
		if enter < 0 {
			return x.Add(q), x.Norm(), nil
		}
		if containsIndex(corral, enter) {
			// Numerical stall: the violating point is already in the
			// corral; accept the current solution.
			return x.Add(q), x.Norm(), nil
		}
		corral = append(corral, enter)
		lambda = append(lambda, 0)

		// Minor cycle: move to the affine minimiser, shrinking the corral
		// until the minimiser is a convex combination.
		for {
			y, mu, err := affineMinimizer(pts, corral, eps)
			if err != nil {
				// Affinely dependent corral: drop the most redundant point.
				corral = corral[:len(corral)-1]
				lambda = lambda[:len(lambda)-1]
				return x.Add(q), x.Norm(), nil
			}
			if allNonNegative(mu, -1e-12) {
				x, lambda = y, mu
				break
			}
			// Line search from lambda toward mu stopping at the first
			// coordinate to hit zero.
			theta := 1.0
			for i := range mu {
				if mu[i] < 0 {
					if t := lambda[i] / (lambda[i] - mu[i]); t < theta {
						theta = t
					}
				}
			}
			for i := range lambda {
				lambda[i] = (1-theta)*lambda[i] + theta*mu[i]
			}
			// Remove points whose weight hit (numerical) zero.
			newCorral := corral[:0]
			newLambda := lambda[:0]
			for i, w := range lambda {
				if w > 1e-12 {
					newCorral = append(newCorral, corral[i])
					newLambda = append(newLambda, w)
				}
			}
			corral, lambda = newCorral, newLambda
			if len(corral) == 0 {
				return nil, 0, errors.New("polytope: wolfe corral emptied (numerical failure)")
			}
			x, _ = combinationByIndex(pts, corral, lambda)
		}
	}
	return nil, 0, fmt.Errorf("polytope: wolfe did not converge in %d iterations", maxWolfeIters)
}

// affineMinimizer returns the minimum-norm point y of the affine hull of
// pts[corral] together with its barycentric coordinates, by solving the KKT
// system  [S S^T + (regularisation), 1; 1^T, 0] [mu; nu] = [0; 1].
func affineMinimizer(pts []geom.Point, corral []int, eps float64) (geom.Point, []float64, error) {
	k := len(corral)
	m := geom.NewMatrix(k+1, k+1)
	rhs := make([]float64, k+1)
	for i := 0; i < k; i++ {
		pi := pts[corral[i]]
		for j := 0; j < k; j++ {
			m.Set(i, j, pi.Dot(pts[corral[j]]))
		}
		m.Set(i, k, 1)
		m.Set(k, i, 1)
	}
	rhs[k] = 1
	sol, err := geom.Solve(m, rhs, eps*eps)
	if err != nil {
		return nil, nil, err
	}
	mu := sol[:k]
	y, err := combinationByIndex(pts, corral, mu)
	if err != nil {
		return nil, nil, err
	}
	return y, append([]float64(nil), mu...), nil
}

func combinationByIndex(pts []geom.Point, idx []int, w []float64) (geom.Point, error) {
	sel := make([]geom.Point, len(idx))
	for i, id := range idx {
		sel[i] = pts[id]
	}
	return geom.Combination(sel, w)
}

func containsIndex(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func allNonNegative(xs []float64, tol float64) bool {
	for _, v := range xs {
		if v < tol {
			return false
		}
	}
	return true
}

// MaxPairwiseHausdorff returns the largest Hausdorff distance among all
// pairs in the slice — the quantity bounded by ε-agreement.
func MaxPairwiseHausdorff(polys []*Polytope, eps float64) (float64, error) {
	var worst float64
	for i := range polys {
		for j := i + 1; j < len(polys); j++ {
			d, err := Hausdorff(polys[i], polys[j], eps)
			if err != nil {
				return 0, err
			}
			if math.IsNaN(d) {
				return 0, errors.New("polytope: NaN hausdorff distance")
			}
			if d > worst {
				worst = d
			}
		}
	}
	return worst, nil
}

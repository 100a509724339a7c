package polytope

import (
	"errors"
	"fmt"
	"math"

	"chc/internal/geom"
	"chc/internal/hull"
)

// weightSumTol is how far the weights of a linear combination may deviate
// from summing to one.
const weightSumTol = 1e-9

// LinearCombination implements the function L of Definition 2: given
// non-empty convex polytopes h_1..h_k and weights c_1..c_k with c_i >= 0 and
// sum c_i = 1, it returns the polytope
//
//	{ sum_i c_i p_i  :  p_i in h_i },
//
// which equals the Minkowski sum of the scaled polytopes c_i * h_i. The
// result is convex and non-empty whenever the operands are (the property
// Lemma 5 relies on). When every positively weighted operand is the same
// polytope (pointer- or bitwise-equal), that operand itself is returned.
func LinearCombination(polys []*Polytope, weights []float64, eps float64) (*Polytope, error) {
	if len(polys) == 0 {
		return nil, errors.New("polytope: linear combination of zero polytopes")
	}
	if len(polys) != len(weights) {
		return nil, fmt.Errorf("polytope: %d polytopes but %d weights", len(polys), len(weights))
	}
	d := polys[0].Dim()
	var sum float64
	for i, w := range weights {
		if w < -weightSumTol || w > 1+weightSumTol {
			return nil, fmt.Errorf("polytope: weight %d = %v out of [0,1]", i, w)
		}
		sum += w
		if len(polys[i].verts) == 0 {
			return nil, ErrEmpty
		}
		if polys[i].Dim() != d {
			return nil, fmt.Errorf("polytope: operand %d has dimension %d, want %d", i, polys[i].Dim(), d)
		}
	}
	if math.Abs(sum-1) > weightSumTol*float64(len(weights)+1) {
		return nil, fmt.Errorf("polytope: weights sum to %v, want 1", sum)
	}

	// Zero-weight operands contribute only the origin; drop them. Equal
	// operands merge into one with the summed weight, since aK + bK = (a+b)K
	// for convex K: a consensus round averages at most f+1 distinct states
	// in round 1 and, absent divergence, one from round 2 on.
	kept := make([]*Polytope, 0, len(polys))
	ws := make([]float64, 0, len(weights))
operands:
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		for g, q := range kept {
			if sameVertices(q, polys[i]) {
				ws[g] += w
				continue operands
			}
		}
		kept = append(kept, polys[i])
		ws = append(ws, w)
	}
	if len(kept) == 0 {
		return nil, errors.New("polytope: all weights are zero")
	}
	mCombineGroups.Observe(float64(len(kept)))
	if len(kept) == 1 {
		return kept[0], nil // the weights sum to one
	}
	return combine(kept, ws, eps)
}

// sameVertices reports whether a and b are the same polytope pointer or hold
// bitwise-identical vertex lists.
func sameVertices(a, b *Polytope) bool {
	if a == b {
		return true
	}
	if len(a.verts) != len(b.verts) {
		return false
	}
	for i, u := range a.verts {
		for j, c := range u {
			if math.Float64bits(c) != math.Float64bits(b.verts[i][j]) {
				return false
			}
		}
	}
	return true
}

// combine is the weighted Minkowski sum kernel over non-empty operands of
// one dimension with positive weights.
func combine(polys []*Polytope, weights []float64, eps float64) (*Polytope, error) {
	switch polys[0].Dim() {
	case 1:
		return combine1D(polys, weights)
	case 2:
		return combine2D(polys, weights, eps)
	default:
		return combineND(polys, weights, eps)
	}
}

// Average returns the equal-weight linear combination used on line 14 of
// Algorithm CC: L(Y; [1/|Y|, ..., 1/|Y|]).
func Average(polys []*Polytope, eps float64) (*Polytope, error) {
	if len(polys) == 0 {
		return nil, errors.New("polytope: average of zero polytopes")
	}
	w := make([]float64, len(polys))
	for i := range w {
		w[i] = 1 / float64(len(polys))
	}
	return LinearCombination(polys, w, eps)
}

func combine1D(polys []*Polytope, weights []float64) (*Polytope, error) {
	var lo, hi float64
	for i, p := range polys {
		plo, phi, err := p.BoundingBox()
		if err != nil {
			return nil, err
		}
		lo += weights[i] * plo[0]
		hi += weights[i] * phi[0]
	}
	if hi-lo < 1e-15 {
		return FromPoint(geom.NewPoint(lo)), nil
	}
	return fromHullVerts([]geom.Point{geom.NewPoint(lo), geom.NewPoint(hi)}), nil
}

func combine2D(polys []*Polytope, weights []float64, eps float64) (*Polytope, error) {
	cur := hull.ScalePolygon(polys[0].verts, weights[0])
	for i, p := range polys[1:] {
		next := hull.ScalePolygon(p.verts, weights[i+1])
		cur = hull.MinkowskiSum2D(cur, next, eps)
		if len(cur) == 0 {
			return nil, ErrEmpty
		}
	}
	return fromHullVerts(cur), nil
}

// combineND computes the weighted Minkowski sum in d >= 3 by pairwise
// vertex-sum hulls: vertices of A + B are sums of vertices of A and B, so
// the hull of all pairwise sums is exact; pruning to hull vertices after
// every pairwise step keeps the vertex count bounded.
func combineND(polys []*Polytope, weights []float64, eps float64) (*Polytope, error) {
	cur := polys[0].Scale(weights[0]).verts
	for i, p := range polys[1:] {
		next := p.Scale(weights[i+1]).verts
		sums := make([]geom.Point, 0, len(cur)*len(next))
		for _, u := range cur {
			for _, v := range next {
				sums = append(sums, u.Add(v))
			}
		}
		verts, err := hull.ConvexHull(sums, eps)
		if err != nil {
			return nil, fmt.Errorf("polytope: minkowski step %d: %w", i+1, err)
		}
		cur = verts
	}
	return fromHullVerts(cur), nil
}

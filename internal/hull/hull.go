// Package hull computes convex hulls and their facet (halfspace)
// representations in d-dimensional Euclidean space.
//
// The kernel is engineered for the workloads of the convex hull consensus
// library: point sets with tens of points, dimensions 1 through ~4, and a
// premium on robustness over asymptotic speed. Dimension 1 uses exact
// interval arithmetic, dimension 2 an exact monotone-chain / polygon kernel,
// and higher dimensions an LP-based, output-sensitive extreme-point filter
// (function H of the paper; see ExtremeFilter) with brute-force oriented
// facet enumeration. Inputs whose affine hull is lower-dimensional are
// projected to that subspace, solved there, and lifted back.
package hull

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"chc/internal/geom"
	"chc/internal/lp"
)

// ErrEmpty is returned when an operation needs a non-empty point set.
var ErrEmpty = errors.New("hull: empty point set")

// Facet is the halfspace Normal·x <= Offset. A polytope's H-representation
// is a conjunction of facets; degenerate (lower-dimensional) polytopes are
// represented with opposing facet pairs encoding equalities.
type Facet struct {
	Normal geom.Point
	Offset float64
}

// Eval returns Normal·p - Offset: negative inside, positive outside.
func (f Facet) Eval(p geom.Point) float64 { return f.Normal.Dot(p) - f.Offset }

// ConvexHull returns the vertices of the convex hull of pts (the function
// H(X) of the paper, Definition 1, applied to a multiset of points). For
// d == 2 the vertices are returned in counter-clockwise order; for other
// dimensions the order is unspecified but deterministic.
func ConvexHull(pts []geom.Point, eps float64) ([]geom.Point, error) {
	if len(pts) == 0 {
		return nil, ErrEmpty
	}
	d := pts[0].Dim()
	for i, p := range pts {
		if p.Dim() != d {
			return nil, fmt.Errorf("hull: point %d has dimension %d, want %d", i, p.Dim(), d)
		}
		if !p.IsFinite() {
			return nil, fmt.Errorf("hull: point %d is not finite: %v", i, p)
		}
	}
	uniq := geom.Dedup(pts, eps)
	switch {
	case len(uniq) == 1:
		return []geom.Point{uniq[0].Clone()}, nil
	case d == 1:
		lo, hi, err := geom.BoundingBox(uniq)
		if err != nil {
			return nil, err
		}
		return []geom.Point{lo, hi}, nil
	case d == 2:
		return MonotoneChain(uniq, eps), nil
	default:
		return extremeFilter(uniq, eps)
	}
}

// extremeScratch is the reusable state of one extreme-point filter run: an
// LP workspace, the frame in join order, the leave-one-out column list and
// the frame membership flags.
type extremeScratch struct {
	ws      *lp.Workspace
	frame   [][]float64
	others  [][]float64
	inFrame []bool
}

var extremePool = sync.Pool{New: func() any { return &extremeScratch{ws: lp.NewWorkspace()} }}

// ExtremeFilter returns the subset of pts that are vertices of conv(pts),
// in input order: point p is extreme iff p is not a convex combination of
// the others. The filter is output-sensitive (frame growth, Dulá–Helgason):
// it grows a frame E ⊇ V from the coordinate extremes — each remaining
// point is tested for membership in conv(E) and, when outside, the LP's
// separating direction names the point that joins E — and then runs the
// leave-one-out membership test over E alone. For m distinct points with
// |V| vertices that is about m + 2|V| small LPs over at most |E| ≈ |V|
// columns each, robust in any dimension, against m LPs over m-1 columns for
// the direct test. The run is sequential and a pure function of the input
// order, which is the whole of its determinism argument.
func ExtremeFilter(pts []geom.Point, eps float64) ([]geom.Point, error) {
	return extremeFilter(geom.Dedup(pts, eps), eps)
}

// extremeFilter is ExtremeFilter on points already distinct at eps.
func extremeFilter(uniq []geom.Point, eps float64) ([]geom.Point, error) {
	if len(uniq) <= 2 {
		out := make([]geom.Point, len(uniq))
		for i, p := range uniq {
			out[i] = p.Clone()
		}
		return out, nil
	}
	s := extremePool.Get().(*extremeScratch)
	defer extremePool.Put(s)
	if cap(s.inFrame) < len(uniq) {
		s.inFrame = make([]bool, len(uniq))
	}
	inFrame := s.inFrame[:len(uniq)]
	clear(inFrame)
	s.frame = s.frame[:0]
	join := func(i int) {
		if !inFrame[i] {
			inFrame[i] = true
			s.frame = append(s.frame, uniq[i])
		}
	}

	// Seed: the first minimiser and maximiser of every coordinate.
	for c := range uniq[0] {
		lo, hi := 0, 0
		for i, p := range uniq {
			if p[c] < uniq[lo][c] {
				lo = i
			}
			if p[c] > uniq[hi][c] {
				hi = i
			}
		}
		join(lo)
		join(hi)
	}

	// Grow: p outside conv(E) yields a direction u with u·p > max_E u·e, so
	// the maximiser of u over all points is new to E; p is retried until it
	// is inside or has joined itself.
	for i, p := range uniq {
		for !inFrame[i] {
			u, inside, err := lp.SeparateWith(s.ws, s.frame, p, eps)
			if err != nil {
				return nil, fmt.Errorf("hull: extreme test for point %d: %w", i, err)
			}
			if inside {
				break
			}
			best, bestVal := 0, math.Inf(-1)
			for j, q := range uniq {
				if v := geom.Point(u).Dot(q); v > bestVal {
					best, bestVal = j, v
				}
			}
			if inFrame[best] {
				// u failed to separate numerically; let the final pass
				// decide p.
				best = i
			}
			join(best)
		}
	}

	// Certify: the direct test, over the frame only. Maximisers on a tie and
	// coordinate extremes may sit inside a face or an edge.
	verts := make([]geom.Point, 0, len(s.frame))
	for i, p := range uniq {
		if !inFrame[i] {
			continue
		}
		others := s.others[:0]
		for j, q := range uniq {
			if inFrame[j] && j != i {
				others = append(others, q)
			}
		}
		s.others = others
		_, err := lp.ConvexWeightsWith(s.ws, others, p, eps)
		switch {
		case err == nil:
			// p is inside the hull of the rest of the frame: not a vertex.
		case errors.Is(err, lp.ErrInfeasible):
			verts = append(verts, p.Clone())
		default:
			return nil, fmt.Errorf("hull: extreme test for point %d: %w", i, err)
		}
	}
	if len(verts) == 0 {
		// Cannot happen for a non-empty set, but guard against numerical
		// weirdness: fall back to the deduplicated input.
		return uniq, nil
	}
	return verts, nil
}

// Contains reports whether q lies in the convex hull of pts (within the LP
// tolerance eps).
func Contains(pts []geom.Point, q geom.Point, eps float64) (bool, error) {
	if len(pts) == 0 {
		return false, ErrEmpty
	}
	flat := make([][]float64, len(pts))
	for i, p := range pts {
		flat[i] = p
	}
	_, err := lp.ConvexWeights(flat, q, eps)
	switch {
	case err == nil:
		return true, nil
	case errors.Is(err, lp.ErrInfeasible):
		return false, nil
	default:
		return false, err
	}
}

// sortPointsLex orders points lexicographically (deterministic output order
// for hashing/serialisation).
func sortPointsLex(pts []geom.Point, eps float64) {
	sort.Slice(pts, func(i, j int) bool { return geom.Lex(pts[i], pts[j], eps) < 0 })
}

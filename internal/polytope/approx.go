package polytope

import (
	"fmt"

	"chc/internal/geom"
)

// LimitVertices returns an inner approximation of p with at most maxVerts
// vertices, together with the Hausdorff distance between p and the
// approximation (the approximation error). Vertices are selected greedily:
// start from the two farthest-apart vertices, then repeatedly add the
// vertex farthest from the current approximation (a farthest-point /
// Gonzalez selection), which minimises the worst-case error among subset
// selections of this size up to a factor of two.
//
// The result is an inner approximation (its vertex set is a subset of p's),
// so containment-based properties that must hold FOR the polytope — e.g.
// validity, "output inside the correct-input hull" — are preserved, while
// properties that must hold OF the polytope — e.g. "I_Z inside the output"
// — may degrade by up to the returned error. Experiment E12 quantifies the
// trade-off.
func LimitVertices(p *Polytope, maxVerts int, eps float64) (*Polytope, float64, error) {
	if maxVerts < 2 {
		return nil, 0, fmt.Errorf("polytope: vertex budget %d too small (need >= 2)", maxVerts)
	}
	if len(p.verts) == 0 {
		return nil, 0, ErrEmpty
	}
	if len(p.verts) <= maxVerts {
		return fromHullVerts(p.Vertices()), 0, nil
	}
	// Seed with the diameter pair.
	bi, bj := 0, 0
	var best float64
	for i := range p.verts {
		for j := i + 1; j < len(p.verts); j++ {
			if d := geom.Dist(p.verts[i], p.verts[j]); d > best {
				best, bi, bj = d, i, j
			}
		}
	}
	chosen := map[int]bool{bi: true, bj: true}
	sel := []geom.Point{p.verts[bi], p.verts[bj]}
	cur := fromHullVerts(append([]geom.Point(nil), sel...))
	for len(chosen) < maxVerts {
		worstIdx, worstDist := -1, 0.0
		for i, v := range p.verts {
			if chosen[i] {
				continue
			}
			d, err := cur.Distance(v, eps)
			if err != nil {
				return nil, 0, err
			}
			if d > worstDist {
				worstDist, worstIdx = d, i
			}
		}
		if worstIdx < 0 || worstDist <= eps {
			break // remaining vertices already inside: exact representation
		}
		chosen[worstIdx] = true
		sel = append(sel, p.verts[worstIdx])
		next, err := New(sel, eps)
		if err != nil {
			return nil, 0, err
		}
		cur = next
		// New may prune earlier selections that became interior; keep sel
		// canonical so the budget counts actual hull vertices.
		sel = cur.Vertices()
	}
	errDist, err := DirectedHausdorff(p, cur, eps)
	if err != nil {
		return nil, 0, err
	}
	return cur, errDist, nil
}

// SupportProfile evaluates the support function h_p(u) = max_{x in p} u·x
// over the given directions, returning the values in direction order. Two
// convex polytopes are equal iff their support functions agree on all
// directions; tests use sampled profiles as a cheap similarity oracle.
func (p *Polytope) SupportProfile(dirs []geom.Point) ([]float64, error) {
	out := make([]float64, len(dirs))
	for i, u := range dirs {
		_, v, err := p.Support(u)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

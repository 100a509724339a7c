// Package polytope provides the convex polytope abstraction at the heart of
// convex hull consensus: the state h_i[t] of every process is a Polytope,
// and the three operations the algorithm performs on states are implemented
// here — intersection of convex hulls (line 5 of Algorithm CC), the linear
// combination L of Definition 2 (a weighted Minkowski sum), and the
// Hausdorff distance of equation (1) used by the ε-agreement property.
//
// Polytopes are stored in V-representation (vertex sets); the H-representation
// (facets) is derived lazily when an operation needs it. Dimension 1 uses
// exact interval arithmetic and dimension 2 an exact polygon kernel; higher
// dimensions combine LP-based predicates with brute-force facet enumeration
// (see package hull for the trade-offs).
package polytope

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"chc/internal/geom"
	"chc/internal/hull"
	"chc/internal/lp"
)

// ErrEmpty is returned by operations whose result would be the empty set
// (e.g. an empty intersection) or that received an empty polytope.
var ErrEmpty = errors.New("polytope: empty polytope")

// Polytope is a bounded convex polytope in V-representation. The zero value
// is not usable; construct with New or FromPoint. Polytopes are immutable
// after construction and safe for concurrent use; derived quantities (the
// facet representation and the Chebyshev centre) are computed lazily and
// memoized under an internal RWMutex. Because every derived computation is a
// deterministic function of the immutable vertex set, a memoized result is
// bitwise-identical to a fresh recomputation — caching never perturbs
// replayed traces.
type Polytope struct {
	verts []geom.Point // canonical vertex set (hull vertices only)

	mu        sync.RWMutex
	facets    []hull.Facet
	facetsErr error
	facetsSet bool
	chebC     geom.Point
	chebR     float64
	chebErr   error
	chebSet   bool
}

// New builds the convex hull of pts and returns it as a Polytope. The input
// may contain duplicates and interior points; only hull vertices are kept.
func New(pts []geom.Point, eps float64) (*Polytope, error) {
	verts, err := hull.ConvexHull(pts, eps)
	if err != nil {
		return nil, fmt.Errorf("polytope: %w", err)
	}
	return &Polytope{verts: verts}, nil
}

// FromCanonical wraps a vertex list that is already canonical — the vertex
// set of a polytope some process built, as a state broadcast carries it —
// without re-hulling it. The list is not copied. An O(|V|) check rejects an
// empty list, mixed dimensions and non-finite coordinates, and in 2-D
// anything but a strictly convex counter-clockwise polygon (two vertices
// must differ). In d >= 3 it does not check that every vertex is extreme;
// CheckExtreme does, at the cost of a hull computation.
func FromCanonical(verts []geom.Point) (*Polytope, error) {
	if len(verts) == 0 {
		return nil, ErrEmpty
	}
	d := verts[0].Dim()
	for i, v := range verts {
		if v.Dim() != d {
			return nil, fmt.Errorf("polytope: vertex %d has dimension %d, want %d", i, v.Dim(), d)
		}
		if !v.IsFinite() {
			return nil, fmt.Errorf("polytope: vertex %d is not finite: %v", i, v)
		}
	}
	if d == 2 {
		if err := checkConvexCCW(verts); err != nil {
			return nil, err
		}
	}
	return &Polytope{verts: verts}, nil
}

// checkConvexCCW accepts a point, two distinct points, or a polygon whose
// every vertex turns strictly counter-clockwise and which winds once: the
// signs of its edges' x-extents change exactly twice around the cycle.
func checkConvexCCW(v []geom.Point) error {
	m := len(v)
	switch {
	case m == 1:
		return nil
	case m == 2:
		if v[0][0] == v[1][0] && v[0][1] == v[1][1] {
			return errors.New("polytope: duplicated vertex")
		}
		return nil
	}
	var changes int
	var first, last float64
	for i := range v {
		a, b, c := v[i], v[(i+1)%m], v[(i+2)%m]
		if cr := (b[0]-a[0])*(c[1]-a[1]) - (b[1]-a[1])*(c[0]-a[0]); !(cr > 0) {
			return fmt.Errorf("polytope: vertices %d, %d, %d are not a strict counter-clockwise turn", i, (i+1)%m, (i+2)%m)
		}
		if dx := b[0] - a[0]; dx != 0 {
			s := math.Copysign(1, dx)
			if last == 0 {
				first = s
			} else if s != last {
				changes++
			}
			last = s
		}
	}
	if first != last {
		changes++
	}
	if changes != 2 {
		return errors.New("polytope: polygon winds around more than once")
	}
	return nil
}

// CheckExtreme returns an error unless every vertex of p is a vertex of
// conv(p) at eps — the check FromCanonical leaves out in d >= 3.
func (p *Polytope) CheckExtreme(eps float64) error {
	ext, err := hull.ExtremeFilter(p.verts, eps)
	if err != nil {
		return fmt.Errorf("polytope: %w", err)
	}
	if len(ext) != len(p.verts) {
		return fmt.Errorf("polytope: %d of %d vertices are not extreme", len(p.verts)-len(ext), len(p.verts))
	}
	return nil
}

// FromPoint returns the degenerate polytope {p}.
func FromPoint(p geom.Point) *Polytope {
	return &Polytope{verts: []geom.Point{p.Clone()}}
}

// fromHullVerts wraps an already-canonical vertex set without re-hulling.
func fromHullVerts(verts []geom.Point) *Polytope {
	return &Polytope{verts: verts}
}

// Vertices returns a copy of the polytope's vertex set. For 2-D polytopes
// the vertices are in counter-clockwise order.
func (p *Polytope) Vertices() []geom.Point {
	out := make([]geom.Point, len(p.verts))
	for i, v := range p.verts {
		out[i] = v.Clone()
	}
	return out
}

// NumVertices returns the number of vertices.
func (p *Polytope) NumVertices() int { return len(p.verts) }

// Dim returns the ambient dimension.
func (p *Polytope) Dim() int {
	if len(p.verts) == 0 {
		return 0
	}
	return p.verts[0].Dim()
}

// AffineDim returns the dimension of the polytope's affine hull (0 for a
// point, up to Dim()).
func (p *Polytope) AffineDim(eps float64) (int, error) {
	if len(p.verts) == 0 {
		return 0, ErrEmpty
	}
	return geom.AffineDim(p.verts, eps)
}

// Facets returns the polytope's halfspace representation, computing and
// caching it on first use (the eps of the first call wins, as before).
func (p *Polytope) Facets(eps float64) ([]hull.Facet, error) {
	p.mu.RLock()
	if p.facetsSet {
		f, err := p.facets, p.facetsErr
		p.mu.RUnlock()
		return f, err
	}
	p.mu.RUnlock()
	f, err := hull.Facets(p.verts, eps)
	p.mu.Lock()
	if !p.facetsSet {
		p.facets, p.facetsErr, p.facetsSet = f, err, true
	}
	f, err = p.facets, p.facetsErr
	p.mu.Unlock()
	return f, err
}

// ChebyshevCenter returns the centre and radius of the largest inscribed
// ball of the polytope, derived from its facet representation and memoized
// (the eps of the first call wins). The returned centre is a fresh copy.
func (p *Polytope) ChebyshevCenter(eps float64) (geom.Point, float64, error) {
	if len(p.verts) == 0 {
		return nil, 0, ErrEmpty
	}
	p.mu.RLock()
	if p.chebSet {
		c, r, err := p.chebC, p.chebR, p.chebErr
		p.mu.RUnlock()
		if err != nil {
			return nil, 0, err
		}
		return c.Clone(), r, nil
	}
	p.mu.RUnlock()

	c, r, err := p.chebyshevCompute(eps)
	p.mu.Lock()
	if !p.chebSet {
		p.chebC, p.chebR, p.chebErr, p.chebSet = c, r, err, true
	}
	c, r, err = p.chebC, p.chebR, p.chebErr
	p.mu.Unlock()
	if err != nil {
		return nil, 0, err
	}
	return c.Clone(), r, nil
}

func (p *Polytope) chebyshevCompute(eps float64) (geom.Point, float64, error) {
	if len(p.verts) == 1 {
		return p.verts[0].Clone(), 0, nil
	}
	facets, err := p.Facets(eps)
	if err != nil {
		return nil, 0, err
	}
	a := make([][]float64, len(facets))
	b := make([]float64, len(facets))
	for i, f := range facets {
		a[i], b[i] = f.Normal, f.Offset
	}
	c, r, err := lp.ChebyshevCenter(a, b, eps)
	if err != nil {
		return nil, 0, fmt.Errorf("polytope: chebyshev centre: %w", err)
	}
	return geom.Point(c), r, nil
}

// Contains reports whether q is in the polytope, within tolerance eps.
func (p *Polytope) Contains(q geom.Point, eps float64) (bool, error) {
	if len(p.verts) == 0 {
		return false, ErrEmpty
	}
	if p.Dim() == 2 && len(p.verts) >= 3 {
		return hull.PointInConvexPolygon(q, p.verts, eps), nil
	}
	return hull.Contains(p.verts, q, eps)
}

// ContainsPolytope reports whether every point of q lies in p, i.e. q ⊆ p.
// By convexity it suffices to test q's vertices.
func (p *Polytope) ContainsPolytope(q *Polytope, eps float64) (bool, error) {
	if len(q.verts) == 0 {
		return false, ErrEmpty
	}
	for _, v := range q.verts {
		in, err := p.Contains(v, eps)
		if err != nil {
			return false, err
		}
		if !in {
			return false, nil
		}
	}
	return true, nil
}

// Support returns max over the polytope of dir·x and the first maximising
// vertex.
func (p *Polytope) Support(dir geom.Point) (geom.Point, float64, error) {
	if len(p.verts) == 0 {
		return nil, 0, ErrEmpty
	}
	best := 0
	bestVal := dir.Dot(p.verts[0])
	for i, v := range p.verts[1:] {
		if val := dir.Dot(v); val > bestVal {
			best, bestVal = i+1, val
		}
	}
	return p.verts[best].Clone(), bestVal, nil
}

// Centroid returns the arithmetic mean of the vertices (a point inside the
// polytope; not the volumetric centroid).
func (p *Polytope) Centroid() (geom.Point, error) {
	if len(p.verts) == 0 {
		return nil, ErrEmpty
	}
	return geom.Centroid(p.verts)
}

// Volume returns the d-dimensional volume; degenerate polytopes have 0.
func (p *Polytope) Volume(eps float64) (float64, error) {
	if len(p.verts) == 0 {
		return 0, ErrEmpty
	}
	return hull.Volume(p.verts, eps)
}

// Diameter returns the maximum distance between two points of the polytope
// (attained at a vertex pair).
func (p *Polytope) Diameter() float64 { return hull.Diameter(p.verts) }

// IsPoint reports whether the polytope is a single point (within eps).
func (p *Polytope) IsPoint(eps float64) bool {
	return len(p.verts) == 1 || p.Diameter() <= eps
}

// Sample returns a random point of the polytope, drawn as a random convex
// combination of its vertices with exponentially distributed weights (a
// Dirichlet(1,...,1) draw over the vertex simplex; not volumetrically
// uniform, but it has full support over the polytope).
func (p *Polytope) Sample(rng *rand.Rand) (geom.Point, error) {
	if len(p.verts) == 0 {
		return nil, ErrEmpty
	}
	w := make([]float64, len(p.verts))
	var sum float64
	for i := range w {
		w[i] = rng.ExpFloat64()
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return geom.Combination(p.verts, w)
}

// Translate returns the polytope shifted by v.
func (p *Polytope) Translate(v geom.Point) *Polytope {
	verts := make([]geom.Point, len(p.verts))
	for i, q := range p.verts {
		verts[i] = q.Add(v)
	}
	return fromHullVerts(verts)
}

// Scale returns the polytope scaled by c about the origin. Scaling preserves
// vertex status, so no re-hulling is needed (for c = 0 the result collapses
// to the origin).
func (p *Polytope) Scale(c float64) *Polytope {
	if c == 0 {
		return FromPoint(geom.Zero(p.Dim()))
	}
	verts := make([]geom.Point, len(p.verts))
	for i, q := range p.verts {
		verts[i] = q.Scale(c)
	}
	return fromHullVerts(verts)
}

// Equal reports whether a and b describe the same polytope within eps,
// i.e. their Hausdorff distance is at most eps.
func Equal(a, b *Polytope, eps float64) (bool, error) {
	d, err := Hausdorff(a, b, eps)
	if err != nil {
		return false, err
	}
	return d <= eps, nil
}

// BoundingBox returns the polytope's axis-aligned bounding box.
func (p *Polytope) BoundingBox() (lo, hi geom.Point, err error) {
	if len(p.verts) == 0 {
		return nil, nil, ErrEmpty
	}
	return geom.BoundingBox(p.verts)
}

// String renders a short description.
func (p *Polytope) String() string {
	if len(p.verts) == 0 {
		return "Polytope(empty)"
	}
	if len(p.verts) <= 4 {
		return fmt.Sprintf("Polytope%v", p.verts)
	}
	return fmt.Sprintf("Polytope(%d vertices in %d-D)", len(p.verts), p.Dim())
}

// maxFinite guards against NaN propagation in distance computations.
func maxFinite(a, b float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.NaN()
	}
	if a > b {
		return a
	}
	return b
}

package lp

import (
	"errors"
	"fmt"
	"math"
)

// ErrInfeasible is returned by helpers when the underlying LP has no
// feasible point.
var ErrInfeasible = errors.New("lp: infeasible")

// ErrUnbounded is returned by helpers when the underlying LP is unbounded.
var ErrUnbounded = errors.New("lp: unbounded")

// MinimizeOverHalfspaces minimises dir·x subject to a[i]·x <= b[i] with x
// free. It returns the minimiser and the optimal value.
func MinimizeOverHalfspaces(dir []float64, a [][]float64, b []float64, eps float64) ([]float64, float64, error) {
	return optimizeOverHalfspaces(nil, dir, a, b, eps, true)
}

// MaximizeOverHalfspaces maximises dir·x subject to a[i]·x <= b[i] with x
// free. It returns the maximiser and the optimal value.
func MaximizeOverHalfspaces(dir []float64, a [][]float64, b []float64, eps float64) ([]float64, float64, error) {
	return optimizeOverHalfspaces(nil, dir, a, b, eps, false)
}

// MinimizeOverHalfspacesWith is MinimizeOverHalfspaces drawing all scratch
// from the caller's workspace.
func MinimizeOverHalfspacesWith(ws *Workspace, dir []float64, a [][]float64, b []float64, eps float64) ([]float64, float64, error) {
	return optimizeOverHalfspaces(ws, dir, a, b, eps, true)
}

// MaximizeOverHalfspacesWith is MaximizeOverHalfspaces drawing all scratch
// from the caller's workspace.
func MaximizeOverHalfspacesWith(ws *Workspace, dir []float64, a [][]float64, b []float64, eps float64) ([]float64, float64, error) {
	return optimizeOverHalfspaces(ws, dir, a, b, eps, false)
}

func optimizeOverHalfspaces(ws *Workspace, dir []float64, a [][]float64, b []float64, eps float64, minimize bool) ([]float64, float64, error) {
	n := len(dir)
	if len(a) != len(b) {
		return nil, 0, fmt.Errorf("%w: %d constraint rows but %d bounds", ErrBadProblem, len(a), len(b))
	}
	if ws == nil {
		ws = getWS()
		defer putWS(ws)
	}
	cons := ws.constraints(len(a))
	for i := range a {
		if len(a[i]) != n {
			return nil, 0, fmt.Errorf("%w: row %d has %d coefficients for %d variables", ErrBadProblem, i, len(a[i]), n)
		}
		cons[i] = Constraint{Coeffs: a[i], Op: LE, RHS: b[i]}
	}
	free := ws.arena.Bools(n)
	for i := range free {
		free[i] = true
	}
	p := &Problem{NumVars: n, Objective: dir, Minimize: minimize, Constraints: cons, Free: free}
	sol, err := p.SolveWith(ws, eps)
	if err != nil {
		return nil, 0, err
	}
	switch sol.Status {
	case Optimal:
		return sol.X, sol.Value, nil
	case Infeasible:
		return nil, 0, ErrInfeasible
	default:
		return nil, 0, ErrUnbounded
	}
}

// ChebyshevCenter returns the centre and radius of the largest inscribed
// ball of the polyhedron {x : a[i]·x <= b[i]}. A zero radius indicates a
// degenerate (lower-dimensional) but non-empty polyhedron; ErrInfeasible an
// empty one; ErrUnbounded a polyhedron with unbounded inscribed balls.
func ChebyshevCenter(a [][]float64, b []float64, eps float64) (center []float64, radius float64, err error) {
	return ChebyshevCenterWith(nil, a, b, eps)
}

// ChebyshevCenterWith is ChebyshevCenter drawing all scratch from the
// caller's workspace. The returned centre is freshly allocated.
func ChebyshevCenterWith(ws *Workspace, a [][]float64, b []float64, eps float64) (center []float64, radius float64, err error) {
	if len(a) == 0 {
		return nil, 0, fmt.Errorf("%w: no constraints", ErrBadProblem)
	}
	n := len(a[0])
	if ws == nil {
		ws = getWS()
		defer putWS(ws)
	}
	// Variables: x (free, n of them) and r >= 0.
	// Maximise r subject to a[i]·x + ||a[i]|| r <= b[i].
	cons := ws.constraints(len(a))
	for i := range a {
		if len(a[i]) != n {
			return nil, 0, fmt.Errorf("%w: row %d has %d coefficients for %d variables", ErrBadProblem, i, len(a[i]), n)
		}
		var norm float64
		for _, v := range a[i] {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		row := ws.arena.Floats(n + 1)
		copy(row, a[i])
		row[n] = norm
		cons[i] = Constraint{Coeffs: row, Op: LE, RHS: b[i]}
	}
	obj := ws.arena.Floats(n + 1)
	obj[n] = 1
	free := ws.arena.Bools(n + 1)
	for i := 0; i < n; i++ {
		free[i] = true
	}
	p := &Problem{NumVars: n + 1, Objective: obj, Minimize: false, Constraints: cons, Free: free}
	sol, err := p.SolveWith(ws, eps)
	if err != nil {
		return nil, 0, err
	}
	switch sol.Status {
	case Optimal:
		return sol.X[:n], sol.X[n], nil
	case Infeasible:
		return nil, 0, ErrInfeasible
	default:
		return nil, 0, ErrUnbounded
	}
}

// ConvexWeights finds non-negative weights w with sum(w) = 1 such that
// sum_i w[i]*verts[i] = q, i.e. it certifies membership of q in the convex
// hull of verts. It returns ErrInfeasible when q is outside the hull.
func ConvexWeights(verts [][]float64, q []float64, eps float64) ([]float64, error) {
	return ConvexWeightsWith(nil, verts, q, eps)
}

// ConvexWeightsWith is ConvexWeights drawing all scratch from the caller's
// workspace. The returned weights are freshly allocated.
func ConvexWeightsWith(ws *Workspace, verts [][]float64, q []float64, eps float64) ([]float64, error) {
	if ws == nil {
		ws = getWS()
		defer putWS(ws)
	}
	p, err := membershipProblem(ws, verts, q)
	if err != nil {
		return nil, err
	}
	sol, err := p.SolveWith(ws, eps)
	if err != nil {
		return nil, err
	}
	if sol.Status != Optimal {
		return nil, ErrInfeasible
	}
	return sol.X, nil
}

// SeparateWith decides the membership of ConvexWeightsWith — same tableau,
// same tolerance — and reports inside, or else a direction u with
// u·q > max_v u·v: the phase-1 duals of the coordinate rows, which certify
// the infeasibility. u is freshly allocated.
func SeparateWith(ws *Workspace, verts [][]float64, q []float64, eps float64) (u []float64, inside bool, err error) {
	if ws == nil {
		ws = getWS()
		defer putWS(ws)
	}
	p, err := membershipProblem(ws, verts, q)
	if err != nil {
		return nil, false, err
	}
	dual := make([]float64, len(q)+1)
	sol, err := p.solve(ws, eps, dual)
	if err != nil {
		return nil, false, err
	}
	if sol.Status == Optimal {
		return nil, true, nil
	}
	return dual[:len(q)], false, nil
}

// membershipProblem builds, in the workspace, the feasibility LP "q is a
// convex combination of verts": one equality row per coordinate plus the
// weights summing to one.
func membershipProblem(ws *Workspace, verts [][]float64, q []float64) (*Problem, error) {
	if len(verts) == 0 {
		return nil, fmt.Errorf("%w: no vertices", ErrBadProblem)
	}
	d := len(q)
	k := len(verts)
	cons := ws.constraints(d + 1)
	for coord := 0; coord < d; coord++ {
		row := ws.arena.Floats(k)
		for i, v := range verts {
			if len(v) != d {
				return nil, fmt.Errorf("%w: vertex %d has dimension %d, want %d", ErrBadProblem, i, len(v), d)
			}
			row[i] = v[coord]
		}
		cons[coord] = Constraint{Coeffs: row, Op: EQ, RHS: q[coord]}
	}
	ones := ws.arena.Floats(k)
	for i := range ones {
		ones[i] = 1
	}
	cons[d] = Constraint{Coeffs: ones, Op: EQ, RHS: 1}
	return &Problem{NumVars: k, Objective: ws.arena.Floats(k), Minimize: true, Constraints: cons}, nil
}

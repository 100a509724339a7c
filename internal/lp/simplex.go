// Package lp implements a small, dependency-free linear programming solver:
// a dense two-phase tableau simplex with Bland's anti-cycling rule.
//
// The solver targets the modest problem sizes that arise inside the convex
// hull consensus library (dimensions up to ~6, at most a few hundred
// constraints): Chebyshev centres of halfspace intersections, support
// functions, convex-combination membership tests, and linear cost
// minimisation over polytopes.
//
// Callers on hot paths should allocate a Workspace once and use SolveWith
// (or the ...With helper variants): all tableau and scratch memory then
// comes from a reusable arena and the solver performs no steady-state
// allocations beyond the returned Solution.
package lp

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"chc/internal/geom/pool"
)

// Status reports the outcome of an LP solve.
type Status int

// Possible solve outcomes.
const (
	Optimal Status = iota + 1
	Infeasible
	Unbounded
)

// String renders the status for logs and error messages.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Op is a constraint comparison operator.
type Op int

// Constraint operators.
const (
	LE Op = iota + 1 // <=
	EQ               // ==
	GE               // >=
)

// Constraint is a single linear constraint: Coeffs · x  Op  RHS.
type Constraint struct {
	Coeffs []float64
	Op     Op
	RHS    float64
}

// Problem is a linear program over NumVars variables.
//
// By default every variable is non-negative; set Free[j] = true to make
// variable j unrestricted in sign (it is split internally). The objective is
// minimised when Minimize is true and maximised otherwise.
type Problem struct {
	NumVars     int
	Objective   []float64
	Minimize    bool
	Constraints []Constraint
	Free        []bool // optional; nil means all variables >= 0
}

// Solution is the result of a successful or unsuccessful solve.
type Solution struct {
	Status Status
	X      []float64 // variable values (valid only when Status == Optimal)
	Value  float64   // objective value (valid only when Status == Optimal)
}

// ErrBadProblem is returned for structurally invalid problems.
var ErrBadProblem = errors.New("lp: malformed problem")

const maxPivots = 200000

// Workspace holds the reusable scratch memory of the solver: the simplex
// tableau, cost rows, column maps, and the constraint scaffolding the
// ...With helpers build. A Workspace must not be used from more than one
// goroutine at a time; zero value is ready to use.
type Workspace struct {
	arena pool.Arena
	cons  []Constraint
}

// NewWorkspace returns an empty solver workspace.
func NewWorkspace() *Workspace { return new(Workspace) }

// constraints hands out a reusable zeroed []Constraint of length n.
func (w *Workspace) constraints(n int) []Constraint {
	if cap(w.cons) < n {
		w.cons = make([]Constraint, n)
	}
	c := w.cons[:n]
	for i := range c {
		c[i] = Constraint{}
	}
	return c
}

var wsPool = sync.Pool{New: func() any { return new(Workspace) }}

func getWS() *Workspace { return wsPool.Get().(*Workspace) }

func putWS(w *Workspace) {
	w.arena.Reset()
	wsPool.Put(w)
}

// Solve runs two-phase simplex on the problem with tolerance eps.
// Infeasible and Unbounded outcomes are reported in Solution.Status, not as
// errors; errors indicate malformed input or pivot-limit exhaustion.
// Scratch memory comes from a pooled workspace.
func (p *Problem) Solve(eps float64) (*Solution, error) {
	return p.SolveWith(nil, eps)
}

// SolveWith is Solve using the caller's workspace for all internal scratch
// (nil borrows one from a shared pool). The workspace's arena is rewound
// before SolveWith returns, so any memory previously drawn from it is
// recycled; Solution.X is always freshly allocated and safe to retain.
func (p *Problem) SolveWith(ws *Workspace, eps float64) (*Solution, error) {
	return p.solve(ws, eps, nil)
}

// solve is SolveWith with an optional Farkas certificate: when the problem
// is infeasible and dual is non-nil (one entry per constraint), dual receives
// the phase-1 multipliers y of the constraints as the caller wrote them, so
// that y·RHS > 0 while the y-combination of the rows is <= eps on every
// structural column.
func (p *Problem) solve(ws *Workspace, eps float64, dual []float64) (*Solution, error) {
	mSolves.Inc()
	mColumns.Add(int64(p.NumVars))
	if p.NumVars <= 0 {
		return nil, fmt.Errorf("%w: NumVars = %d", ErrBadProblem, p.NumVars)
	}
	if len(p.Objective) != p.NumVars {
		return nil, fmt.Errorf("%w: objective has %d coefficients for %d variables", ErrBadProblem, len(p.Objective), p.NumVars)
	}
	if p.Free != nil && len(p.Free) != p.NumVars {
		return nil, fmt.Errorf("%w: Free has %d entries for %d variables", ErrBadProblem, len(p.Free), p.NumVars)
	}
	for i, c := range p.Constraints {
		if len(c.Coeffs) != p.NumVars {
			return nil, fmt.Errorf("%w: constraint %d has %d coefficients for %d variables", ErrBadProblem, i, len(c.Coeffs), p.NumVars)
		}
		switch c.Op {
		case LE, EQ, GE:
		default:
			return nil, fmt.Errorf("%w: constraint %d has invalid op %d", ErrBadProblem, i, c.Op)
		}
	}

	if ws == nil {
		ws = getWS()
		defer putWS(ws)
	}
	a := &ws.arena
	defer a.Reset()

	// Map to internal columns: free variables become (x+ - x-).
	nCols := 0
	colOf := a.Ints(p.NumVars) // first internal column of variable j
	split := a.Bools(p.NumVars)
	for j := 0; j < p.NumVars; j++ {
		colOf[j] = nCols
		if p.Free != nil && p.Free[j] {
			split[j] = true
			nCols += 2
		} else {
			nCols++
		}
	}

	obj := a.Floats(nCols)
	sign := 1.0
	if !p.Minimize {
		sign = -1.0 // maximise by minimising the negation
	}
	for j := 0; j < p.NumVars; j++ {
		obj[colOf[j]] = sign * p.Objective[j]
		if split[j] {
			obj[colOf[j]+1] = -sign * p.Objective[j]
		}
	}

	rows := a.Rows(len(p.Constraints), nCols)
	for i, c := range p.Constraints {
		row := rows[i]
		for j, v := range c.Coeffs {
			row[colOf[j]] = v
			if split[j] {
				row[colOf[j]+1] = -v
			}
		}
	}

	xInternal, val, status, err := solveStandardized(a, obj, rows, p.Constraints, eps, dual)
	if err != nil {
		return nil, err
	}
	sol := &Solution{Status: status}
	if status != Optimal {
		return sol, nil
	}
	x := make([]float64, p.NumVars)
	for j := 0; j < p.NumVars; j++ {
		x[j] = xInternal[colOf[j]]
		if split[j] {
			x[j] -= xInternal[colOf[j]+1]
		}
	}
	sol.X = x
	sol.Value = sign * val
	return sol, nil
}

// solveStandardized minimises obj·x subject to rows[i]·x (cons[i].Op)
// cons[i].RHS, x >= 0, using a two-phase dense tableau. All scratch
// (including the returned x) is drawn from the arena; the caller copies out
// what it needs before rewinding. dual is the certificate of Problem.solve.
func solveStandardized(a *pool.Arena, obj []float64, rows [][]float64, cons []Constraint, eps float64, dual []float64) ([]float64, float64, Status, error) {
	m := len(rows)
	n := len(obj)

	// Count slacks/surplus and artificials.
	nSlack := 0
	for _, c := range cons {
		if c.Op != EQ {
			nSlack++
		}
	}
	total := n + nSlack + m // reserve an artificial per row (not all used)
	width := total + 1      // includes RHS column

	// Build tableau rows; normalise RHS to be non-negative first.
	tab := a.Rows(m, width)
	basis := a.Ints(m)
	nArt := 0
	slackCol := n
	artCol := n + nSlack
	for i := 0; i < m; i++ {
		row := tab[i]
		copy(row, rows[i])
		b := cons[i].RHS
		op := cons[i].Op
		if b < 0 {
			for j := range row[:n] {
				row[j] = -row[j]
			}
			b = -b
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		switch op {
		case LE:
			row[slackCol] = 1
			basis[i] = slackCol
			slackCol++
		case GE:
			row[slackCol] = -1
			slackCol++
			row[artCol] = 1
			basis[i] = artCol
			artCol++
			nArt++
		case EQ:
			row[artCol] = 1
			basis[i] = artCol
			artCol++
			nArt++
		}
		row[width-1] = b // RHS stored in the last cell
	}

	// Phase 1: minimise sum of artificials (only if any were added).
	if nArt > 0 {
		var basis0 []int
		if dual != nil {
			basis0 = a.Ints(m)
			copy(basis0, basis)
		}
		cost := a.Floats(width)
		for i := 0; i < m; i++ {
			if basis[i] >= n+nSlack {
				// Artificial in basis: subtract its row from the cost row.
				for j := 0; j < width; j++ {
					cost[j] -= tab[i][j]
				}
			}
		}
		// The objective coefficients of artificials are 1; after the
		// subtraction above, reduced costs are correct with artificial
		// columns zeroed in basis rows. Mark artificial columns:
		for j := n + nSlack; j < total; j++ {
			cost[j]++
		}
		if err := pivotLoop(tab, cost, basis, total, eps, n+nSlack); err != nil {
			return nil, 0, 0, err
		}
		if basis[0] == -1 {
			// Phase 1 is bounded below by zero; hitting this means the
			// tableau degenerated numerically.
			return nil, 0, 0, errors.New("lp: phase-1 reported unbounded (numerical trouble)")
		}
		if cost[width-1] < -eps*float64(m+1) {
			// Residual artificial infeasibility (cost row holds -objective).
			// Row i started with a unit column of phase-1 cost c (1 for
			// an artificial, 0 for a slack) whose reduced cost is now
			// c - y_i; rows negated for a negative RHS get the sign back.
			for i := range dual {
				y := -cost[basis0[i]]
				if basis0[i] >= n+nSlack {
					y++
				}
				if cons[i].RHS < 0 {
					y = -y
				}
				dual[i] = y
			}
			return nil, 0, Infeasible, nil
		}
		// Drive any remaining artificials out of the basis.
		for i := 0; i < m; i++ {
			if basis[i] < n+nSlack {
				continue
			}
			// Find a non-artificial column with nonzero coefficient.
			replaced := false
			for j := 0; j < n+nSlack; j++ {
				if math.Abs(tab[i][j]) > eps {
					pivot(tab, basis, i, j)
					replaced = true
					break
				}
			}
			if !replaced {
				// Row is redundant; zero it (keep artificial at value 0).
				for j := range tab[i] {
					if j != basis[i] {
						tab[i][j] = 0
					}
				}
				tab[i][width-1] = 0
			}
		}
	}

	// Phase 2: minimise the real objective. Forbid artificial columns.
	cost := a.Floats(width)
	copy(cost, obj)
	// Express the cost row in terms of the current basis.
	for i := 0; i < m; i++ {
		cj := cost[basis[i]]
		if cj == 0 {
			continue
		}
		for j := 0; j < width; j++ {
			cost[j] -= cj * tab[i][j]
		}
	}
	if err := pivotLoop(tab, cost, basis, n+nSlack, eps, n+nSlack); err != nil {
		return nil, 0, 0, err
	}
	// Detect unboundedness: pivotLoop signals it via sentinel basis value.
	if basis[0] == -1 {
		return nil, 0, Unbounded, nil
	}

	x := a.Floats(total)
	for i := 0; i < m; i++ {
		x[basis[i]] = tab[i][width-1]
	}
	return x[:n], -cost[width-1], Optimal, nil
}

// pivotLoop runs simplex iterations on the tableau, minimising the cost row.
// Columns at index >= colLimit never enter the basis (used to exclude
// artificials in phase 2). artStart marks where artificial columns begin so
// Bland's rule can prefer driving them out. Unboundedness is signalled by
// setting basis[0] = -1.
func pivotLoop(tab [][]float64, cost []float64, basis []int, colLimit int, eps float64, artStart int) error {
	m := len(tab)
	width := len(cost)
	for iter := 0; iter < maxPivots; iter++ {
		// Bland's rule: entering column = smallest index with cost < -eps.
		enter := -1
		for j := 0; j < colLimit; j++ {
			if cost[j] < -eps {
				enter = j
				break
			}
		}
		if enter < 0 {
			return nil // optimal
		}
		// Ratio test; Bland's rule on ties: smallest basis index leaves.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < m; i++ {
			a := tab[i][enter]
			if a <= eps {
				continue
			}
			ratio := tab[i][width-1] / a
			if ratio < bestRatio-eps {
				bestRatio, leave = ratio, i
			} else if ratio < bestRatio+eps && leave >= 0 {
				// Tie: prefer kicking out artificials, then Bland.
				bi, bl := basis[i], basis[leave]
				if (bi >= artStart && bl < artStart) || (bi < artStart) == (bl < artStart) && bi < bl {
					leave = i
				}
			}
		}
		if leave < 0 {
			basis[0] = -1 // unbounded
			return nil
		}
		pivot(tab, basis, leave, enter)
		// Update the cost row.
		ce := cost[enter]
		if ce != 0 {
			prow := tab[leave]
			for j := 0; j < width; j++ {
				cost[j] -= ce * prow[j]
			}
		}
	}
	return errors.New("lp: pivot limit exceeded")
}

// pivot performs a Gauss-Jordan pivot on tab[row][col] and updates the basis.
func pivot(tab [][]float64, basis []int, row, col int) {
	prow := tab[row]
	inv := 1 / prow[col]
	for j := range prow {
		prow[j] *= inv
	}
	prow[col] = 1 // exact
	for i := range tab {
		if i == row {
			continue
		}
		f := tab[i][col]
		if f == 0 {
			continue
		}
		ri := tab[i]
		for j := range ri {
			ri[j] -= f * prow[j]
		}
		ri[col] = 0 // exact
	}
	basis[row] = col
}

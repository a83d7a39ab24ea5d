// Package lp implements a dense bounded-variable dual simplex solver for
// linear programs in the form
//
//	minimize    c.x
//	subject to  a_k.x (<=|=|>=) b_k      for each constraint k
//	            0 <= x_i <= ub_i         (ub optional, +Inf by default)
//
// where every variable with a negative cost has a finite upper bound (the
// accepted class; other LPs are rejected with ErrUnboundedColumn before any
// pivot). It substitutes for the LP path of Gurobi 5.0 used by the paper:
// the power-minimization "LPQC" (eqs. 3.6-3.9) becomes a pure LP once the
// coverage assignment is fixed, and the branch-and-bound MILP solver in
// sagrelay/internal/milp solves its node relaxations here. Every LP those
// callers build is a covering model with costs in {0, 1}, well inside the
// class.
//
// There is one engine. Variable bounds stay implicit (nonbasic columns sit
// at a bound), and a solve starts the dual simplex from a dual-feasible
// basis: the caller's warm-start Basis (a branch-and-bound parent's
// optimum), or the all-slack basis, which bound flips alone make dual
// feasible for the accepted class, so no primal phase, artificial columns
// or bound rows are needed. A starting basis that turns out unusable
// (singular, drifted, non-finite) is handled by a fallback ladder inside
// the same engine: refactorize at the last basis reached, then restart
// from the slack basis; only when every rung fails is the typed
// ErrWarmStart returned.
//
// Leaving rows are priced with dual Devex weights and a deterministic
// anti-cycling guard: a fixed-iteration stall detector switches the solve
// to Bland's rule, which provably terminates. All tie-breaks go to the
// lowest variable index, so solves are bit-reproducible across runs and
// worker counts. All arithmetic is dense float64 and solves are bounded by
// a pivot budget. Problem sizes in this repository are at most a few
// hundred variables and constraints per zone, well within dense-simplex
// territory.
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
)

// Op is a constraint comparison operator.
type Op int

// Constraint operators. (Enums start at 1 so the zero value is invalid.)
const (
	LE Op = iota + 1 // a.x <= b
	GE               // a.x >= b
	EQ               // a.x == b
)

// String renders the operator.
func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Status is the outcome of a solve.
type Status int

// Solve outcomes. (Enums start at 1 so the zero value is invalid.) An LP of
// the accepted class is bounded below, so there is no unbounded outcome:
// LPs outside the class are rejected with ErrUnboundedColumn instead.
const (
	Optimal Status = iota + 1
	Infeasible
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Term is one coefficient of a constraint row: Coef * x[Var].
type Term struct {
	Var  int
	Coef float64
}

type constraint struct {
	terms []Term
	op    Op
	rhs   float64
}

// Problem is a linear program under construction. The zero value is not
// usable; call NewProblem.
type Problem struct {
	obj    []float64 // objective coefficient per variable
	ub     []float64 // upper bound per variable (+Inf when absent)
	names  []string
	cons   []constraint
	maxIts int
}

// NewProblem returns an empty minimization problem.
func NewProblem() *Problem {
	return &Problem{maxIts: 0}
}

// SetMaxIterations caps the dual simplex pivots of one solve, across the
// fallback ladder's rungs; 0 means the default (50000 + 50*(m+n)). A solve
// that needs more returns an error wrapping ErrIterationLimit.
func (p *Problem) SetMaxIterations(n int) { p.maxIts = n }

// NumVariables returns the number of variables added so far.
func (p *Problem) NumVariables() int { return len(p.obj) }

// NumConstraints returns the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.cons) }

// AddVariable adds a variable x >= 0 with the given objective coefficient
// and returns its index. name is for diagnostics only. A negative
// coefficient needs a finite upper bound by solve time (SetUpperBound or a
// per-solve override), or the solve fails with ErrUnboundedColumn.
func (p *Problem) AddVariable(name string, obj float64) int {
	p.obj = append(p.obj, obj)
	p.ub = append(p.ub, math.Inf(1))
	p.names = append(p.names, name)
	return len(p.obj) - 1
}

// SetObjective replaces the objective coefficient of variable i.
func (p *Problem) SetObjective(i int, obj float64) error {
	if i < 0 || i >= len(p.obj) {
		return fmt.Errorf("lp: variable %d out of range", i)
	}
	p.obj[i] = obj
	return nil
}

// SetUpperBound sets x_i <= ub (ub must be >= 0; +Inf clears the bound).
func (p *Problem) SetUpperBound(i int, ub float64) error {
	if i < 0 || i >= len(p.ub) {
		return fmt.Errorf("lp: variable %d out of range", i)
	}
	if ub < 0 {
		return fmt.Errorf("lp: negative upper bound %v for variable %d", ub, i)
	}
	p.ub[i] = ub
	return nil
}

// UpperBound returns the current upper bound of variable i (+Inf if unset).
func (p *Problem) UpperBound(i int) float64 {
	if i < 0 || i >= len(p.ub) {
		return math.Inf(1)
	}
	return p.ub[i]
}

// AddConstraint appends the constraint sum(terms) op rhs. Terms referencing
// the same variable are summed. Unknown variable indices are an error.
func (p *Problem) AddConstraint(terms []Term, op Op, rhs float64) error {
	if op != LE && op != GE && op != EQ {
		return fmt.Errorf("lp: invalid operator %v", op)
	}
	merged := make(map[int]float64, len(terms))
	for _, t := range terms {
		if t.Var < 0 || t.Var >= len(p.obj) {
			return fmt.Errorf("lp: constraint references unknown variable %d", t.Var)
		}
		merged[t.Var] += t.Coef
	}
	row := make([]Term, 0, len(merged))
	for v, c := range merged {
		if c != 0 {
			row = append(row, Term{Var: v, Coef: c})
		}
	}
	// Sort by variable so the stored row is independent of map iteration
	// order: constraint evaluation (CheckFeasible) sums terms in slice order,
	// and floating-point addition order must not vary between identical
	// problem builds.
	sort.Slice(row, func(i, j int) bool { return row[i].Var < row[j].Var })
	p.cons = append(p.cons, constraint{terms: row, op: op, rhs: rhs})
	return nil
}

// CheckFeasible evaluates every constraint and variable bound at the point
// x (length must match the variable count), with absolute tolerance tol on
// each row. It lets callers — notably branch-and-bound primal heuristics —
// test candidate integer points without a solve.
func (p *Problem) CheckFeasible(x []float64, tol float64) (bool, error) {
	if len(x) != len(p.obj) {
		return false, fmt.Errorf("lp: point has %d entries for %d variables", len(x), len(p.obj))
	}
	for i, xi := range x {
		if xi < -tol || xi > p.ub[i]+tol {
			return false, nil
		}
	}
	for _, c := range p.cons {
		lhs := 0.0
		for _, t := range c.terms {
			lhs += t.Coef * x[t.Var]
		}
		switch c.op {
		case LE:
			if lhs > c.rhs+tol {
				return false, nil
			}
		case GE:
			if lhs < c.rhs-tol {
				return false, nil
			}
		case EQ:
			if math.Abs(lhs-c.rhs) > tol {
				return false, nil
			}
		}
	}
	return true, nil
}

// Objective evaluates the objective c.x at the point x.
func (p *Problem) Objective(x []float64) (float64, error) {
	if len(x) != len(p.obj) {
		return 0, fmt.Errorf("lp: point has %d entries for %d variables", len(x), len(p.obj))
	}
	obj := 0.0
	for i, c := range p.obj {
		obj += c * x[i]
	}
	return obj, nil
}

// Solution is the result of a successful Solve with Status Optimal, or an
// Infeasible diagnosis with zeroed values.
//
// (Problem.Clone was deleted with the warm-start work: Solve never modifies
// the base problem, so branch-and-bound re-solves one shared Problem with
// per-node bound overrides and nothing cloned it any more.)
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
	// Iterations is the total number of dual simplex pivots, across the
	// fallback ladder's rungs when it was walked.
	Iterations int
	// Basis is the optimal basis snapshot for warm-starting a re-solve
	// under changed bounds. Only (*Solver).WarmSolve populates it (on
	// Optimal solutions); plain Solve leaves it nil so non-tree callers pay
	// nothing. A warm-started solution carries its final dual basis; a cold
	// one (started from the slack basis, or a ladder retry) carries a basis
	// crashed from its optimal point.
	Basis *Basis
	// WarmStarted reports that the caller's warm-start basis produced this
	// solution. It is false for a cold solve: one started from the slack
	// basis (a nil basis, plain Solve) or one the fallback ladder finished
	// after the caller's basis failed.
	WarmStarted bool
}

// ErrIterationLimit is returned when the pivot budget is exhausted; it
// indicates a degenerate or adversarial instance rather than a model error.
var ErrIterationLimit = errors.New("lp: simplex iteration limit exceeded")

// ErrNumerical is returned when a non-finite value (NaN or Inf) is found in
// the model inputs or appears in the tableau during pivoting. It turns a
// silent numerical breakdown — which would otherwise propagate NaN
// objectives into branch-and-bound bounds and poison pruning — into a typed,
// recoverable failure the degradation ladder can act on.
var ErrNumerical = errors.New("lp: non-finite value (numerical breakdown)")

// Solve runs the dual simplex from the slack basis and returns the
// solution. Infeasible problems are reported through Solution.Status with a
// nil error; the error return is reserved for LPs outside the accepted
// class (ErrUnboundedColumn), invalid input, resource exhaustion and
// internal faults.
//
// Each call uses a fresh Solver; callers that re-solve the same problem
// with varying bounds (branch-and-bound) should hold a Solver and call its
// Solve method to reuse the tableau memory.
func (p *Problem) Solve() (*Solution, error) {
	return NewSolver().Solve(p, nil, nil)
}

// SolveContext is Solve with cooperative cancellation; see
// (*Solver).SolveContext.
func (p *Problem) SolveContext(ctx context.Context) (*Solution, error) {
	return NewSolver().SolveContext(ctx, p, nil, nil)
}

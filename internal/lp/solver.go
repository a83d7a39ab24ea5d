package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"sagrelay/internal/obs"
)

// warmStartsTotal counts solves completed from the caller's warm-start
// basis; coldFallbacksTotal counts solves whose starting basis failed and
// that walked the fallback ladder. Together with sag_lp_pivots_per_solve
// they make the warm-start win visible on /metrics.
var (
	warmStartsTotal    atomic.Int64
	coldFallbacksTotal atomic.Int64
)

func init() {
	obs.Default.Counter("sag_lp_warm_starts_total",
		"LP solves completed from the caller's warm-start basis.",
		warmStartsTotal.Load)
	obs.Default.Counter("sag_lp_cold_fallbacks_total",
		"LP solves whose starting basis failed and fell back to refactorizing at the last basis reached, then to the slack basis.",
		coldFallbacksTotal.Load)
}

// ErrWarmStart reports that a solve could not be completed from its
// starting basis — the basis was singular after the bound change, dual
// feasibility could not be restored, the pivot budget ran out, numerical
// drift failed the final residual check, or a non-finite value appeared.
// The solver walks its fallback ladder on it (refactorize at the last basis
// reached, then restart from the slack basis) and returns it, wrapping its
// cause, only when every rung failed.
var ErrWarmStart = errors.New("lp: warm start unusable")

// ErrUnboundedColumn rejects an LP outside the accepted class: a column with
// a negative objective coefficient and no finite (effective) upper bound.
// Every solve starts its dual simplex from a dual-feasible basis, and for
// such a column no bound flip makes the slack basis dual feasible. The
// rejection happens before any pivot. No model this repository builds has
// such a column.
var ErrUnboundedColumn = errors.New("lp: negative-cost column without a finite upper bound")

// WarmStats returns the process-wide counts of solves completed from the
// caller's warm-start basis and of solves that fell back down the ladder —
// the same values exported as sag_lp_warm_starts_total and
// sag_lp_cold_fallbacks_total. It exists for tooling (the benchmark
// emitter) that reports deltas around a workload.
func WarmStats() (warmStarts, coldFallbacks int64) {
	return warmStartsTotal.Load(), coldFallbacksTotal.Load()
}

// Solver runs the bounded-variable dual simplex with memory reused across
// solves. It exists for the branch-and-bound hot path: every search-tree
// node re-solves the same base problem with only per-variable bounds
// changed, so the dense tableau (by far the largest allocation of a solve)
// is rebuilt in place inside the Solver's buffers instead of being re-made
// per node — and, via WarmSolve, a child node restarts from its parent's
// optimal basis instead of from the slack basis. A child solved right after
// its parent reuses the parent's final tableau outright (see Solver.hot), so
// a solve's rounding, though never its contract, depends on the Solver's
// call sequence; the same sequence always gives bit-identical results.
//
// A Solver is not safe for concurrent use; concurrent solves (e.g. parallel
// per-zone ILPs) each use their own Solver.
type Solver struct {
	lb, ub []float64 // effective per-variable bounds for the current solve

	flat   []float64   // backing storage for all tableau rows
	rows   [][]float64 // row views into flat: [A | I | b] under elimination
	basis  []int       // basic column of each row
	status []VarStatus
	low    []float64 // column bounds, structural then logical
	upp    []float64
	xB     []float64 // basic values
	d      []float64 // reduced costs
	weight []float64 // dual Devex weights
	cands  []dualCand
	vals   []float64
	pivots int // dual pivots of the current solve, across ladder rungs

	// hot is the Basis the last solve returned from the caller's basis,
	// and hotP its problem; while set, rows still hold that solve's final
	// tableau, already factorized for hot. A WarmSolve of hotP from hot
	// (the next depth-first branch-and-bound child of the node just
	// solved) skips the rebuild and refactorization. Any other solve
	// clears it.
	hot  *Basis
	hotP *Problem

	// forceBland pins pivot selection to Bland's rule from the first
	// iteration. Testing hook: the degenerate-LP regressions compare
	// Devex-with-stall-fallback against pure Bland's.
	forceBland bool
}

// NewSolver returns an empty Solver; buffers grow on first use.
func NewSolver() *Solver { return &Solver{} }

// Solve minimizes p under per-variable bound overrides and returns the
// solution. lower[v] imposes x_v >= lb (values <= 0 are no-ops: x >= 0 is
// implicit), upper[v] tightens x_v's upper bound when below the problem's
// own (negative values clamp to 0). The base problem is not modified, so
// branch-and-bound can re-solve it with different bounds node after node.
// Either map may be nil. Solution.X is freshly allocated per call; all
// other working memory is reused.
//
// Overrides only set column bounds, and every pivot choice breaks ties on
// the lowest column index, so two solves of the same (problem, bounds)
// input run the identical pivot sequence — map iteration order never leaks
// into the result.
func (s *Solver) Solve(p *Problem, lower, upper map[int]float64) (*Solution, error) {
	return s.SolveContext(context.Background(), p, lower, upper)
}

// SolveContext is Solve with cooperative cancellation: the simplex
// iteration loop polls ctx every few pivots and aborts with ctx's error
// (context.Canceled or context.DeadlineExceeded) when it is done. The
// cancellation check never changes the pivot sequence of a solve that runs
// to completion, so determinism is unaffected.
func (s *Solver) SolveContext(ctx context.Context, p *Problem, lower, upper map[int]float64) (*Solution, error) {
	return s.solve(ctx, p, lower, upper, nil, false)
}

// WarmSolve is SolveContext with a warm start: basis, the Basis of a
// previous optimal solve of the same problem (same variables and
// constraints; only the bound overrides may differ), seeds the
// bound-flipping dual simplex, which repairs primal feasibility from the
// still-dual-feasible parent basis in a few pivots. A nil basis starts from
// the slack basis, like SolveContext.
//
// Whenever the starting basis is unusable — singular after the bound
// change, irreparably dual infeasible, or numerically drifted — the typed
// ErrWarmStart is caught internally and the solve walks the fallback
// ladder, so the answer is always as trustworthy as one from the slack
// basis.
//
// An Optimal Solution carries a Basis for chaining into the next warm
// solve, and Solution.WarmStarted reports whether the caller's basis
// produced it.
func (s *Solver) WarmSolve(ctx context.Context, p *Problem, lower, upper map[int]float64, basis *Basis) (*Solution, error) {
	return s.solve(ctx, p, lower, upper, basis, true)
}

// solve runs the dual simplex from basis (the slack basis when nil) and, on
// ErrWarmStart, walks the fallback ladder inside the same engine:
//
//  1. refactorize at the last basis the failed run reached (when it made
//     at least one pivot — otherwise the refactorization would repeat the
//     failed one), then
//  2. restart from the slack basis (when the failed start was not already
//     the slack basis), then
//  3. return the last rung's error, which wraps ErrWarmStart and its cause.
//
// An exhausted pivot budget ends the ladder at once: the budget covers the
// whole solve, so no later rung could make progress. withBasis attaches the
// optimal basis (for warm-starting descendants); plain Solve/SolveContext
// skip it so non-tree callers pay nothing.
func (s *Solver) solve(ctx context.Context, p *Problem, lower, upper map[int]float64, basis *Basis, withBasis bool) (*Solution, error) {
	if err := s.load(p, lower, upper); err != nil {
		return nil, err
	}
	if ctx == context.Background() {
		ctx = nil
	}
	retry := func(err error) bool {
		return errors.Is(err, ErrWarmStart) && !errors.Is(err, ErrIterationLimit)
	}
	s.pivots = 0
	start := basis
	hot := basis != nil && basis == s.hot && p == s.hotP
	s.hot, s.hotP = nil, nil
	sol, err := s.warmAttempt(ctx, p, start, hot)
	if hot && retry(err) {
		// The carried tableau drifted: refactorize at the caller's basis,
		// exactly as a solve without the hot tableau would have started.
		sol, err = s.warmAttempt(ctx, p, start, false)
	}
	if retry(err) {
		coldFallbacksTotal.Add(1)
		if s.pivots > 0 {
			start = &Basis{status: append([]VarStatus(nil), s.status...)}
			sol, err = s.warmAttempt(ctx, p, start, false)
		}
		if retry(err) && basis != nil {
			start = nil
			sol, err = s.warmAttempt(ctx, p, nil, false)
		}
	}
	if err != nil {
		return nil, err
	}
	lpPivotsPerSolve.Observe(float64(sol.Iterations))
	sol.WarmStarted = basis != nil && start == basis
	if sol.WarmStarted {
		warmStartsTotal.Add(1)
	}
	switch {
	case sol.Status != Optimal || !withBasis:
	case sol.WarmStarted:
		sol.Basis = &Basis{status: append([]VarStatus(nil), s.status...)}
		s.hot, s.hotP = sol.Basis, p
	default:
		sol.Basis = s.basisFromPoint(p, sol.X)
	}
	return sol, nil
}

// load validates the model, computes the effective bounds into s.lb/s.ub,
// and rejects LPs outside the accepted class (ErrUnboundedColumn).
func (s *Solver) load(p *Problem, lower, upper map[int]float64) error {
	if err := validateInputs(p, lower, upper); err != nil {
		return err
	}
	if err := s.effectiveBounds(p, lower, upper); err != nil {
		return err
	}
	for i, c := range p.obj {
		if c < 0 && math.IsInf(s.ub[i], 1) {
			return fmt.Errorf("%w: variable %d (%s) has cost %v", ErrUnboundedColumn, i, p.names[i], c)
		}
	}
	return nil
}

// basisFromPoint crashes a bounded-variable basis from an optimal point:
// columns at a bound become nonbasic at that bound, columns strictly inside
// become Basic. Solves that did not start from the caller's basis (tree
// roots and ladder retries) hand this crash to their descendants rather
// than their final dual basis: at a degenerate vertex it marks only the
// strictly interior structural columns Basic, so the children's
// refactorizations eliminate fewer structural columns and complete the
// rest of the basis with logical columns. The completion is
// deterministic, and a singular one falls down the ladder.
func (s *Solver) basisFromPoint(p *Problem, x []float64) *Basis {
	n, m := len(p.obj), len(p.cons)
	st := make([]VarStatus, n+m)
	const eps = 1e-7
	for i := 0; i < n; i++ {
		switch {
		case x[i] <= s.lb[i]+eps:
			st[i] = AtLower
		case !math.IsInf(s.ub[i], 1) && x[i] >= s.ub[i]-eps:
			st[i] = AtUpper
		default:
			st[i] = Basic
		}
	}
	for k, c := range p.cons {
		act := 0.0
		for _, t := range c.terms {
			act += t.Coef * x[t.Var]
		}
		slack := c.rhs - act
		switch c.op {
		case LE: // logical in [0, +Inf)
			if slack <= eps {
				st[n+k] = AtLower
			} else {
				st[n+k] = Basic
			}
		case GE: // logical in (-Inf, 0]
			if slack >= -eps {
				st[n+k] = AtUpper
			} else {
				st[n+k] = Basic
			}
		case EQ: // logical fixed at 0
			st[n+k] = AtLower
		}
	}
	return &Basis{status: st}
}

// grow returns buf resized to n, reallocating only when capacity is short.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func growInt(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

func growStatus(buf []VarStatus, n int) []VarStatus {
	if cap(buf) < n {
		return make([]VarStatus, n)
	}
	return buf[:n]
}

// validateInputs rejects non-finite model inputs up front: a single NaN
// coefficient would otherwise spread through the tableau and surface as
// garbage bounds far from its source.
func validateInputs(p *Problem, lower, upper map[int]float64) error {
	for i, c := range p.obj {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("%w: objective coefficient of variable %d is %v", ErrNumerical, i, c)
		}
	}
	for i, ub := range p.ub {
		if math.IsNaN(ub) || math.IsInf(ub, -1) {
			return fmt.Errorf("%w: upper bound of variable %d is %v", ErrNumerical, i, ub)
		}
	}
	for k, c := range p.cons {
		if math.IsNaN(c.rhs) || math.IsInf(c.rhs, 0) {
			return fmt.Errorf("%w: right-hand side of constraint %d is %v", ErrNumerical, k, c.rhs)
		}
		for _, term := range c.terms {
			if math.IsNaN(term.Coef) || math.IsInf(term.Coef, 0) {
				return fmt.Errorf("%w: coefficient of variable %d in constraint %d is %v", ErrNumerical, term.Var, k, term.Coef)
			}
		}
	}
	for v, b := range lower {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return fmt.Errorf("%w: lower bound override of variable %d is %v", ErrNumerical, v, b)
		}
	}
	for v, b := range upper {
		if math.IsNaN(b) || math.IsInf(b, -1) {
			return fmt.Errorf("%w: upper bound override of variable %d is %v", ErrNumerical, v, b)
		}
	}
	return nil
}

// effectiveBounds fills s.lb/s.ub with the problem's own bounds tightened
// by the per-call overrides (the contract documented on Solve).
func (s *Solver) effectiveBounds(p *Problem, lower, upper map[int]float64) error {
	n := len(p.obj)
	s.ub = grow(s.ub, n)
	copy(s.ub, p.ub)
	for v, ub := range upper {
		if v < 0 || v >= n {
			return fmt.Errorf("lp: upper bound for unknown variable %d", v)
		}
		if ub < 0 {
			ub = 0
		}
		if ub < s.ub[v] {
			s.ub[v] = ub
		}
	}
	s.lb = grow(s.lb, n)
	for i := range s.lb {
		s.lb[i] = 0
	}
	for v, lb := range lower {
		if v < 0 || v >= n {
			return fmt.Errorf("lp: lower bound for unknown variable %d", v)
		}
		if lb > 0 {
			s.lb[v] = lb
		}
	}
	return nil
}

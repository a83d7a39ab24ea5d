package lp

import "context"

// Test-only exports: the degenerate-LP regressions pin pivot selection to
// Bland's rule, the warm-start tests probe one run of the engine directly
// to assert on the typed ErrWarmStart instead of the ladder's recovery, and
// the external tests compare against the exact oracle.

// SetForceBland pins pivot selection to Bland's rule from the first
// iteration.
func (s *Solver) SetForceBland(v bool) { s.forceBland = v }

// WarmAttempt runs the dual simplex once from basis (the slack basis when
// nil), surfacing the ErrWarmStart that WarmSolve would recover from by
// walking its fallback ladder.
func (s *Solver) WarmAttempt(ctx context.Context, p *Problem, lower, upper map[int]float64, basis *Basis) (*Solution, error) {
	if err := s.load(p, lower, upper); err != nil {
		return nil, err
	}
	s.pivots = 0
	s.hot, s.hotP = nil, nil
	return s.warmAttempt(ctx, p, basis, false)
}

// Oracle is the exact math/big simplex of oracle_test.go for one problem.
type Oracle struct{ o *ratOracle }

// NewOracle returns the exact oracle for p.
func NewOracle(p *Problem) *Oracle { return &Oracle{o: newRatOracle(p)} }

// Solve solves the oracle's problem exactly under the bound overrides (the
// contract of (*Solver).Solve), re-solving from the unperturbed problem's
// optimal basis. It returns the status, the optimal objective and vertex
// (rounded to float64; zero unless Optimal), and bounded = false when the
// LP has an improving ray, which no LP of the accepted class has.
func (o *Oracle) Solve(lower, upper map[int]float64) (st Status, obj float64, x []float64, bounded bool) {
	r := o.o.solveWarm(lower, upper)
	if r.unbounded {
		return 0, 0, nil, false
	}
	if r.status == Optimal {
		obj = r.objFloat()
	}
	return r.status, obj, r.x, true
}

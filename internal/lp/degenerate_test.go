package lp_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"sagrelay/internal/lp"
)

// bealeProblem is Beale's classic cycling example: under Dantzig's rule
// with naive tie-breaking the simplex cycles forever through degenerate
// bases. The optimum is -0.05 at x = (0.04, 0, 1, 0). The negative-cost
// columns x1 and x3 get an upper bound of 1, which the solver's accepted
// class requires and which binds at neither coordinate of the optimum (x3's
// is the same as its constraint row).
func bealeProblem(t *testing.T) *lp.Problem {
	t.Helper()
	p := lp.NewProblem()
	x1 := p.AddVariable("x1", -0.75)
	x2 := p.AddVariable("x2", 150)
	x3 := p.AddVariable("x3", -0.02)
	x4 := p.AddVariable("x4", 6)
	for _, v := range []int{x1, x3} {
		if err := p.SetUpperBound(v, 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		terms []lp.Term
		rhs   float64
	}{
		{[]lp.Term{{Var: x1, Coef: 0.25}, {Var: x2, Coef: -60}, {Var: x3, Coef: -0.04}, {Var: x4, Coef: 9}}, 0},
		{[]lp.Term{{Var: x1, Coef: 0.5}, {Var: x2, Coef: -90}, {Var: x3, Coef: -0.02}, {Var: x4, Coef: 3}}, 0},
		{[]lp.Term{{Var: x3, Coef: 1}}, 1},
	} {
		if err := p.AddConstraint(c.terms, lp.LE, c.rhs); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// TestBealeCycling proves the dual simplex's Devex+stall-fallback pricing
// terminates on Beale's cycling example with the same optimum as pure
// Bland's rule.
func TestBealeCycling(t *testing.T) {
	const want = -0.05
	for _, mode := range []struct {
		name  string
		bland bool
	}{{"devex", false}, {"bland", true}} {
		t.Run(mode.name, func(t *testing.T) {
			p := bealeProblem(t)
			s := lp.NewSolver()
			s.SetForceBland(mode.bland)
			sol, err := s.Solve(p, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if sol.Status != lp.Optimal {
				t.Fatalf("status %v", sol.Status)
			}
			if math.Abs(sol.Objective-want) > 1e-9 {
				t.Errorf("objective %v, want %v", sol.Objective, want)
			}
		})
	}
}

// degenerateCoverLP builds a primal-degenerate covering LP in the shape
// internal/lower produces: unit costs, heavily overlapping GE rows, so the
// optimal vertex has many tight constraints and zero-length pivot steps.
func degenerateCoverLP(t *testing.T) *lp.Problem {
	t.Helper()
	p := lp.NewProblem()
	const n = 6
	vars := make([]int, n)
	for i := range vars {
		vars[i] = p.AddVariable("x", 1)
		if err := p.SetUpperBound(vars[i], 1); err != nil {
			t.Fatal(err)
		}
	}
	// Every window of three consecutive variables must cover one unit; the
	// windows overlap pairwise, so the optimum x = (0,1,0,0,1,0) leaves many
	// redundant-tight rows (degenerate basic solutions along the way).
	for k := 0; k+2 < n; k++ {
		terms := []lp.Term{
			{Var: vars[k], Coef: 1},
			{Var: vars[k+1], Coef: 1},
			{Var: vars[k+2], Coef: 1},
		}
		if err := p.AddConstraint(terms, lp.GE, 1); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// TestDegenerateCover runs the degenerate cover LP under Devex and under
// forced Bland's rule; both must terminate at the same optimum.
func TestDegenerateCover(t *testing.T) {
	var objs [2]float64
	for i, bland := range []bool{false, true} {
		p := degenerateCoverLP(t)
		s := lp.NewSolver()
		s.SetForceBland(bland)
		sol, err := s.Solve(p, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != lp.Optimal {
			t.Fatalf("bland=%v: status %v", bland, sol.Status)
		}
		objs[i] = sol.Objective
		if ok, err := p.CheckFeasible(sol.X, 1e-9); err != nil || !ok {
			t.Fatalf("bland=%v: optimal point infeasible (%v)", bland, err)
		}
	}
	if math.Abs(objs[0]-objs[1]) > 1e-9 {
		t.Errorf("devex optimum %v != bland optimum %v", objs[0], objs[1])
	}
	if math.Abs(objs[0]-2) > 1e-9 {
		t.Errorf("optimum %v, want 2", objs[0])
	}
}

// TestDegenerateCoverWarm warm-starts the degenerate cover LP from its own
// optimal basis under a tightened bound — the degenerate-crash completion
// path (fewer Basic columns than rows) must either finish on the dual
// simplex or walk the fallback ladder, never mis-solve. The exact oracle is
// the reference.
func TestDegenerateCoverWarm(t *testing.T) {
	p := degenerateCoverLP(t)
	s := lp.NewSolver()
	root, err := s.WarmSolve(nil, p, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if root.Basis == nil {
		t.Fatal("root solve returned no basis")
	}
	for v := 0; v < 6; v++ {
		warm, err := s.WarmSolve(nil, p, map[int]float64{v: 1}, nil, root.Basis)
		if err != nil {
			t.Fatal(err)
		}
		st, obj, _, _ := lp.NewOracle(p).Solve(map[int]float64{v: 1}, nil)
		if warm.Status != st {
			t.Fatalf("fix x%d=1: warm status %v, oracle %v", v, warm.Status, st)
		}
		if warm.Status == lp.Optimal && math.Abs(warm.Objective-obj) > 1e-9 {
			t.Errorf("fix x%d=1: warm objective %v, oracle %v", v, warm.Objective, obj)
		}
	}
}

// TestIterationLimit caps a solve that needs several dual pivots at one:
// the exhausted budget must surface as ErrIterationLimit through the
// ErrWarmStart wrapping (branch-and-bound skips a node on it), on both the
// plain and the warm entry points.
func TestIterationLimit(t *testing.T) {
	p := degenerateCoverLP(t)
	sol, err := p.Solve()
	if err != nil || sol.Status != lp.Optimal || sol.Iterations < 2 {
		t.Fatalf("uncapped solve: sol = %+v, err = %v; want optimal in >= 2 pivots", sol, err)
	}
	p.SetMaxIterations(1)
	if _, err := p.Solve(); !errors.Is(err, lp.ErrIterationLimit) || !errors.Is(err, lp.ErrWarmStart) {
		t.Errorf("Solve: err = %v, want ErrIterationLimit wrapped in ErrWarmStart", err)
	}
	if _, err := lp.NewSolver().WarmSolve(context.Background(), p, nil, nil, nil); !errors.Is(err, lp.ErrIterationLimit) {
		t.Errorf("WarmSolve: err = %v, want ErrIterationLimit", err)
	}
}

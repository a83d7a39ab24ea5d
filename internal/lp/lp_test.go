package lp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// solveOrFail builds the problem with fn and returns the solution.
func solveOrFail(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return sol
}

func TestSimpleLE(t *testing.T) {
	// min -x - y  s.t. x + y <= 4, x <= 3, y <= 2  ->  x=3, y=1? No:
	// max x + y with x<=3, y<=2, x+y<=4 -> optimum 4 (e.g. x=2,y=2 or x=3,y=1).
	p := NewProblem()
	x := p.AddVariable("x", -1)
	y := p.AddVariable("y", -1)
	if err := p.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 4); err != nil {
		t.Fatal(err)
	}
	if err := p.SetUpperBound(x, 3); err != nil {
		t.Fatal(err)
	}
	if err := p.SetUpperBound(y, 2); err != nil {
		t.Fatal(err)
	}
	sol := solveOrFail(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !almost(sol.Objective, -4, 1e-7) {
		t.Errorf("objective = %v, want -4", sol.Objective)
	}
	if sol.X[x]+sol.X[y] > 4+1e-7 || sol.X[x] > 3+1e-7 || sol.X[y] > 2+1e-7 {
		t.Errorf("solution violates constraints: %v", sol.X)
	}
}

func TestGEAndEQ(t *testing.T) {
	// min 2x + 3y  s.t. x + y >= 10, x - y == 2  ->  x=6, y=4, obj=24.
	p := NewProblem()
	x := p.AddVariable("x", 2)
	y := p.AddVariable("y", 3)
	if err := p.AddConstraint([]Term{{x, 1}, {y, 1}}, GE, 10); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint([]Term{{x, 1}, {y, -1}}, EQ, 2); err != nil {
		t.Fatal(err)
	}
	sol := solveOrFail(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !almost(sol.X[x], 6, 1e-7) || !almost(sol.X[y], 4, 1e-7) {
		t.Errorf("solution = %v, want (6, 4)", sol.X)
	}
	if !almost(sol.Objective, 24, 1e-7) {
		t.Errorf("objective = %v, want 24", sol.Objective)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 1)
	if err := p.AddConstraint([]Term{{x, 1}}, GE, 5); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint([]Term{{x, 1}}, LE, 3); err != nil {
		t.Fatal(err)
	}
	sol := solveOrFail(t, p)
	if sol.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

// TestUnbounded: a negative-cost column without a finite upper bound is
// outside the accepted class and is rejected with the typed error before
// any pivot — on the plain, the warm and the overridden entry points alike —
// while a finite upper-bound override brings the same problem back in.
func TestUnbounded(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", -1) // maximize x, no bound
	s := NewSolver()
	if sol, err := p.Solve(); !errors.Is(err, ErrUnboundedColumn) {
		t.Errorf("Solve: sol = %+v, err = %v, want ErrUnboundedColumn", sol, err)
	}
	if sol, err := s.WarmSolve(context.Background(), p, nil, nil, nil); !errors.Is(err, ErrUnboundedColumn) {
		t.Errorf("WarmSolve: sol = %+v, err = %v, want ErrUnboundedColumn", sol, err)
	}
	if sol, err := s.Solve(p, map[int]float64{x: 1}, nil); !errors.Is(err, ErrUnboundedColumn) {
		t.Errorf("lower override only: sol = %+v, err = %v, want ErrUnboundedColumn", sol, err)
	}
	sol, err := s.Solve(p, nil, map[int]float64{x: 3})
	if err != nil || sol.Status != Optimal || !almost(sol.X[x], 3, 1e-9) {
		t.Errorf("finite upper override: sol = %+v, err = %v, want x = 3", sol, err)
	}
}

func TestNegativeRHS(t *testing.T) {
	// min x  s.t. -x <= -5  (i.e. x >= 5)
	p := NewProblem()
	x := p.AddVariable("x", 1)
	if err := p.AddConstraint([]Term{{x, -1}}, LE, -5); err != nil {
		t.Fatal(err)
	}
	sol := solveOrFail(t, p)
	if sol.Status != Optimal || !almost(sol.X[x], 5, 1e-7) {
		t.Errorf("got %v %v, want x=5", sol.Status, sol.X)
	}
}

func TestEqualityWithNegativeRHS(t *testing.T) {
	// min x + y  s.t. x - y == -3, x + y >= 5 -> x=1, y=4, obj=5.
	p := NewProblem()
	x := p.AddVariable("x", 1)
	y := p.AddVariable("y", 1)
	if err := p.AddConstraint([]Term{{x, 1}, {y, -1}}, EQ, -3); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint([]Term{{x, 1}, {y, 1}}, GE, 5); err != nil {
		t.Fatal(err)
	}
	sol := solveOrFail(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !almost(sol.X[x], 1, 1e-7) || !almost(sol.X[y], 4, 1e-7) {
		t.Errorf("solution = %v, want (1, 4)", sol.X)
	}
}

func TestDegenerateProblem(t *testing.T) {
	// Classic degenerate corner; must terminate and find obj 0 at origin.
	p := NewProblem()
	x := p.AddVariable("x", 1)
	y := p.AddVariable("y", 1)
	for _, c := range [][]Term{
		{{x, 1}, {y, 1}},
		{{x, 1}, {y, 2}},
		{{x, 2}, {y, 1}},
	} {
		if err := p.AddConstraint(c, GE, 0); err != nil {
			t.Fatal(err)
		}
	}
	sol := solveOrFail(t, p)
	if sol.Status != Optimal || !almost(sol.Objective, 0, 1e-9) {
		t.Errorf("got %v obj=%v", sol.Status, sol.Objective)
	}
}

func TestDuplicateTermsMerged(t *testing.T) {
	// x + x <= 4 means 2x <= 4. The upper bound 10 keeps the negative-cost
	// column in the accepted class without binding at the implied 2.
	p := NewProblem()
	x := p.AddVariable("x", -1)
	if err := p.SetUpperBound(x, 10); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint([]Term{{x, 1}, {x, 1}}, LE, 4); err != nil {
		t.Fatal(err)
	}
	sol := solveOrFail(t, p)
	if !almost(sol.X[x], 2, 1e-7) {
		t.Errorf("x = %v, want 2", sol.X[x])
	}
}

func TestValidationErrors(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 1)
	if err := p.AddConstraint([]Term{{x + 7, 1}}, LE, 1); err == nil {
		t.Error("unknown variable accepted")
	}
	if err := p.AddConstraint([]Term{{x, 1}}, Op(0), 1); err == nil {
		t.Error("invalid op accepted")
	}
	if err := p.SetUpperBound(x, -1); err == nil {
		t.Error("negative upper bound accepted")
	}
	if err := p.SetUpperBound(42, 1); err == nil {
		t.Error("out-of-range upper bound accepted")
	}
	if err := p.SetObjective(42, 1); err == nil {
		t.Error("out-of-range objective accepted")
	}
}

func TestStatusStrings(t *testing.T) {
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" || Status(0).String() != "Status(0)" {
		t.Error("status strings wrong")
	}
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "==" {
		t.Error("op strings wrong")
	}
}

// TestTransportation solves a balanced transportation problem with a known
// optimum, exercising equality rows and larger tableaus.
func TestTransportation(t *testing.T) {
	// 2 supplies (10, 20), 3 demands (10, 10, 10).
	// costs: s0: [2, 4, 5], s1: [3, 1, 7].
	// Optimal: s0->d0 10 (20), s1->d1 10 (10), s1->d2 10 (70)... check
	// alternatives: s0 could serve d2 at 5. Supplies: s0=10, s1=20.
	// LP optimum: x00=10, x11=10, x12=10 -> 2*10+1*10+7*10 = 100;
	// or x02=10, x10=10, x11=10 -> 5*10+3*10+1*10=90. The latter is better.
	costs := [2][3]float64{{2, 4, 5}, {3, 1, 7}}
	supply := []float64{10, 20}
	demand := []float64{10, 10, 10}
	p := NewProblem()
	var vars [2][3]int
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			vars[i][j] = p.AddVariable("x", costs[i][j])
		}
	}
	for i := 0; i < 2; i++ {
		terms := make([]Term, 3)
		for j := 0; j < 3; j++ {
			terms[j] = Term{vars[i][j], 1}
		}
		if err := p.AddConstraint(terms, EQ, supply[i]); err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < 3; j++ {
		terms := make([]Term, 2)
		for i := 0; i < 2; i++ {
			terms[i] = Term{vars[i][j], 1}
		}
		if err := p.AddConstraint(terms, EQ, demand[j]); err != nil {
			t.Fatal(err)
		}
	}
	sol := solveOrFail(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !almost(sol.Objective, 90, 1e-6) {
		t.Errorf("objective = %v, want 90", sol.Objective)
	}
}

// Property: for random feasible bounded LPs of the covering form
// min sum(x) s.t. random subsets sum >= 1, 0 <= x <= 1, the solution
// respects every constraint and the objective is between 0 and n.
func TestRandomCoveringLPs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		m := 1 + rng.Intn(10)
		p := NewProblem()
		vars := make([]int, n)
		for i := range vars {
			vars[i] = p.AddVariable("x", 1)
			if err := p.SetUpperBound(vars[i], 1); err != nil {
				return false
			}
		}
		rowsets := make([][]int, m)
		for k := 0; k < m; k++ {
			var terms []Term
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 0 {
					terms = append(terms, Term{vars[i], 1})
					rowsets[k] = append(rowsets[k], i)
				}
			}
			if len(terms) == 0 {
				terms = []Term{{vars[0], 1}}
				rowsets[k] = []int{0}
			}
			if err := p.AddConstraint(terms, GE, 1); err != nil {
				return false
			}
		}
		sol, err := p.Solve()
		if err != nil || sol.Status != Optimal {
			return false
		}
		for k := 0; k < m; k++ {
			s := 0.0
			for _, i := range rowsets[k] {
				s += sol.X[i]
			}
			if s < 1-1e-6 {
				return false
			}
		}
		for _, x := range sol.X {
			if x < -1e-9 || x > 1+1e-6 {
				return false
			}
		}
		return sol.Objective >= -1e-9 && sol.Objective <= float64(n)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: LP relaxation objective is a valid lower bound for any feasible
// 0/1 point (tested with the all-ones point on covering instances).
func TestRelaxationLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		p := NewProblem()
		total := 0.0
		costs := make([]float64, n)
		for i := 0; i < n; i++ {
			costs[i] = 1 + rng.Float64()*5
			total += costs[i]
			v := p.AddVariable("x", costs[i])
			if err := p.SetUpperBound(v, 1); err != nil {
				return false
			}
		}
		for k := 0; k < 1+rng.Intn(6); k++ {
			var terms []Term
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 0 {
					terms = append(terms, Term{i, 1})
				}
			}
			if len(terms) == 0 {
				terms = []Term{{0, 1}}
			}
			if err := p.AddConstraint(terms, GE, 1); err != nil {
				return false
			}
		}
		sol, err := p.Solve()
		if err != nil || sol.Status != Optimal {
			return false
		}
		// All-ones is feasible for covering constraints; its cost bounds the
		// LP optimum from above.
		return sol.Objective <= total+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

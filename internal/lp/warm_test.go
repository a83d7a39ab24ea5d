package lp_test

import (
	"bufio"
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"sagrelay/internal/benchprob"
	"sagrelay/internal/lp"
)

// uniqueOptimumLP builds a bounded covering LP with generic (irrational-ish
// random) costs, so the optimal vertex is unique with probability one and
// the warm solve and the exact oracle must agree on Solution.X, not just the
// objective.
func uniqueOptimumLP(t *testing.T, seed int64, n, m int) *lp.Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := lp.NewProblem()
	for i := 0; i < n; i++ {
		v := p.AddVariable("x", 0.5+rng.Float64()*5)
		if err := p.SetUpperBound(v, 1); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < m; k++ {
		var terms []lp.Term
		for i := 0; i < n; i++ {
			if rng.Intn(3) != 0 {
				terms = append(terms, lp.Term{Var: i, Coef: 0.5 + rng.Float64()})
			}
		}
		if len(terms) == 0 {
			terms = []lp.Term{{Var: rng.Intn(n), Coef: 1}}
		}
		if err := p.AddConstraint(terms, lp.GE, 0.5+rng.Float64()*1.5); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// TestWarmVsColdEquivalence solves 1000 randomized bound perturbations of a
// unique-optimum LP warm (from the root basis) and with the exact math/big
// oracle, asserting identical statuses, objectives, and solution vectors.
// It also requires that a substantial majority of the warm attempts
// actually complete from the root basis — otherwise the equivalence would
// mostly be checking the fallback ladder's slack restarts.
func TestWarmVsColdEquivalence(t *testing.T) {
	p := uniqueOptimumLP(t, 1234, 14, 18)
	warmSolver := lp.NewSolver()
	oracle := lp.NewOracle(p)
	ctx := context.Background()

	root, err := warmSolver.WarmSolve(ctx, p, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if root.Status != lp.Optimal || root.Basis == nil {
		t.Fatalf("root: status %v, basis %v", root.Status, root.Basis)
	}

	rng := rand.New(rand.NewSource(99))
	warmed, optimal := 0, 0
	for trial := 0; trial < 1000; trial++ {
		lower := map[int]float64{}
		upper := map[int]float64{}
		for k := rng.Intn(4) + 1; k > 0; k-- {
			v := rng.Intn(p.NumVariables())
			switch rng.Intn(3) {
			case 0:
				lower[v] = 1 // fix to upper bound
			case 1:
				upper[v] = 0 // fix to zero
			case 2:
				upper[v] = rng.Float64() // fractional tightening
			}
		}
		warm, err := warmSolver.WarmSolve(ctx, p, lower, upper, root.Basis)
		if err != nil {
			t.Fatalf("trial %d: warm: %v", trial, err)
		}
		st, obj, x, _ := oracle.Solve(lower, upper)
		if warm.Status != st {
			t.Fatalf("trial %d (lower=%v upper=%v): warm status %v, oracle %v",
				trial, lower, upper, warm.Status, st)
		}
		if warm.WarmStarted {
			warmed++
		}
		if warm.Status != lp.Optimal {
			continue
		}
		optimal++
		scale := 1 + math.Abs(obj)
		if math.Abs(warm.Objective-obj) > 1e-7*scale {
			t.Fatalf("trial %d (lower=%v upper=%v): warm objective %v, oracle %v",
				trial, lower, upper, warm.Objective, obj)
		}
		for i := range x {
			if math.Abs(warm.X[i]-x[i]) > 1e-6 {
				t.Fatalf("trial %d (lower=%v upper=%v): x[%d] warm %v, oracle %v",
					trial, lower, upper, i, warm.X[i], x[i])
			}
		}
		if warm.Basis == nil {
			t.Fatalf("trial %d: optimal warm solution carries no basis", trial)
		}
	}
	if optimal == 0 {
		t.Fatal("no perturbation was feasible; test exercised nothing")
	}
	if warmed*2 < optimal {
		t.Errorf("only %d/%d optimal solves warm-started; warm path barely exercised", warmed, optimal)
	}
}

// TestWarmSolveNilBasis: a nil basis starts from the slack basis (a cold
// solve, not warm-started) but still returns a basis for chaining.
func TestWarmSolveNilBasis(t *testing.T) {
	p := benchprob.ILPQCRelaxation()
	sol, err := lp.NewSolver().WarmSolve(context.Background(), p, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if sol.WarmStarted {
		t.Error("nil-basis solve claims to be warm-started")
	}
	if sol.Basis == nil {
		t.Error("nil-basis solve returned no basis")
	}
}

// TestWarmBasisLengthMismatch: a basis from a different problem shape is a
// typed warm-start failure, and WarmSolve still returns the right answer by
// restarting from the slack basis — a cold answer, so WarmStarted is false.
func TestWarmBasisLengthMismatch(t *testing.T) {
	small := lp.NewProblem()
	a := small.AddVariable("a", 1)
	if err := small.AddConstraint([]lp.Term{{Var: a, Coef: 1}}, lp.GE, 1); err != nil {
		t.Fatal(err)
	}
	s := lp.NewSolver()
	smallSol, err := s.WarmSolve(context.Background(), small, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	big := benchprob.ILPQCRelaxation()
	if _, err := s.WarmAttempt(context.Background(), big, nil, nil, smallSol.Basis); !errors.Is(err, lp.ErrWarmStart) {
		t.Fatalf("mismatched basis: error %v, want ErrWarmStart", err)
	}
	sol, err := s.WarmSolve(context.Background(), big, nil, nil, smallSol.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.Optimal || sol.WarmStarted {
		t.Fatalf("fallback solve: status %v, warmStarted %v", sol.Status, sol.WarmStarted)
	}
}

// TestWarmInfeasibleOverrides: conflicting child bounds (lb > ub) are
// Infeasible through the warm entry point, mirroring plain Solve, and must
// not corrupt later solves on the same Solver.
func TestWarmInfeasibleOverrides(t *testing.T) {
	p := benchprob.ILPQCRelaxation()
	s := lp.NewSolver()
	root, err := s.WarmSolve(context.Background(), p, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := s.WarmSolve(context.Background(), p, map[int]float64{0: 1}, map[int]float64{0: 0}, root.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.Infeasible {
		t.Fatalf("lb 1 with ub 0: status %v, want infeasible", sol.Status)
	}
	again, err := s.WarmSolve(context.Background(), p, nil, nil, root.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if again.Status != lp.Optimal || math.Abs(again.Objective-root.Objective) > 1e-9 {
		t.Fatalf("solve after infeasible: status %v obj %v (root %v)", again.Status, again.Objective, root.Objective)
	}
}

// TestWarmDeterminism: the same warm solve twice, on the same Solver and on
// a fresh one, must produce bit-identical results — pivot selection never
// depends on buffer history or map iteration order.
func TestWarmDeterminism(t *testing.T) {
	p := benchprob.ILPQCRelaxation()
	s := lp.NewSolver()
	root, err := s.WarmSolve(context.Background(), p, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	fix := map[int]float64{2: 1, 7: 1}
	first, err := s.WarmSolve(context.Background(), p, fix, nil, root.Basis)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for _, solver := range []*lp.Solver{s, lp.NewSolver()} {
			sol, err := solver.WarmSolve(context.Background(), p, fix, nil, root.Basis)
			if err != nil {
				t.Fatal(err)
			}
			if sol.Status != first.Status || sol.Iterations != first.Iterations || sol.WarmStarted != first.WarmStarted {
				t.Fatalf("round %d: (status, its, warm) = (%v, %d, %v), want (%v, %d, %v)",
					round, sol.Status, sol.Iterations, sol.WarmStarted, first.Status, first.Iterations, first.WarmStarted)
			}
			for i := range first.X {
				if sol.X[i] != first.X[i] {
					t.Fatalf("round %d: x[%d] = %v, want bit-identical %v", round, i, sol.X[i], first.X[i])
				}
			}
		}
	}
}

// TestWarmChain drives a chain of progressively tightened solves, each
// warm-started from the previous solution's basis — the exact
// branch-and-bound dive pattern — checking every step against a solve from
// the slack basis.
func TestWarmChain(t *testing.T) {
	p := benchprob.ILPQCRelaxation()
	warm := lp.NewSolver()
	cold := lp.NewSolver()
	ctx := context.Background()
	cur, err := warm.WarmSolve(ctx, p, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	lower := map[int]float64{}
	for depth := 0; depth < 10 && cur.Status == lp.Optimal; depth++ {
		// Fix the first not-yet-fixed placement variable to 1, like the
		// "place it" branch of the search tree.
		v := -1
		for i := 0; i < 14; i++ {
			if _, ok := lower[i]; !ok {
				v = i
				break
			}
		}
		if v < 0 {
			break
		}
		lower[v] = 1
		next, err := warm.WarmSolve(ctx, p, lower, nil, cur.Basis)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := cold.SolveContext(ctx, p, lower, nil)
		if err != nil {
			t.Fatal(err)
		}
		if next.Status != ref.Status {
			t.Fatalf("depth %d: warm status %v, cold %v", depth, next.Status, ref.Status)
		}
		if next.Status == lp.Optimal && math.Abs(next.Objective-ref.Objective) > 1e-7*(1+math.Abs(ref.Objective)) {
			t.Fatalf("depth %d: warm objective %v, cold %v", depth, next.Objective, ref.Objective)
		}
		cur = next
	}
}

// TestHotTableauClearedByOtherSolve: a Solver keeps the final tableau of a
// solve from the caller's basis and reuses it when the next WarmSolve
// restarts from the Basis that solve returned. Any other solve in between
// overwrites the tableau, so the restart must refactorize: the answer,
// pivot count and point must be bit-identical to a fresh Solver's.
func TestHotTableauClearedByOtherSolve(t *testing.T) {
	ctx := context.Background()
	p := uniqueOptimumLP(t, 11, 12, 10)
	q := uniqueOptimumLP(t, 12, 12, 10) // same shape, other coefficients
	s := lp.NewSolver()
	root, err := s.WarmSolve(ctx, p, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	child, err := s.WarmSolve(ctx, p, nil, map[int]float64{0: 0}, root.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if child.Status != lp.Optimal || !child.WarmStarted {
		t.Fatalf("child: status %v, warmStarted %v; want an optimal warm solve", child.Status, child.WarmStarted)
	}
	if _, err := s.Solve(q, nil, nil); err != nil {
		t.Fatal(err)
	}
	fix := map[int]float64{1: 0, 2: 0}
	got, err := s.WarmSolve(ctx, p, nil, fix, child.Basis)
	if err != nil {
		t.Fatal(err)
	}
	want, err := lp.NewSolver().WarmSolve(ctx, p, nil, fix, child.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != want.Status || got.Iterations != want.Iterations || got.WarmStarted != want.WarmStarted {
		t.Fatalf("(status, its, warm) = (%v, %d, %v), want (%v, %d, %v)",
			got.Status, got.Iterations, got.WarmStarted, want.Status, want.Iterations, want.WarmStarted)
	}
	for i := range want.X {
		if got.X[i] != want.X[i] {
			t.Fatalf("x[%d] = %v, want bit-identical %v", i, got.X[i], want.X[i])
		}
	}
}

// loadLP reads a problem in the testdata text format: "vars N", "cost" and
// "upper" lines of N values, then one "op rhs var:coef ..." line per row;
// lines starting with # are comments.
func loadLP(t *testing.T, path string) *lp.Problem {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p := lp.NewProblem()
	num := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return v
	}
	ops := map[string]lp.Op{"<=": lp.LE, ">=": lp.GE, "==": lp.EQ}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		switch head, vals := fields[0], fields[1:]; head {
		case "vars":
			for i := 0; i < int(num(vals[0])); i++ {
				p.AddVariable("x"+strconv.Itoa(i), 0)
			}
		case "cost":
			for i, v := range vals {
				if err := p.SetObjective(i, num(v)); err != nil {
					t.Fatal(err)
				}
			}
		case "upper":
			for i, v := range vals {
				if err := p.SetUpperBound(i, num(v)); err != nil {
					t.Fatal(err)
				}
			}
		default:
			op, ok := ops[head]
			if !ok {
				t.Fatalf("%s: unknown line %q", path, head)
			}
			var terms []lp.Term
			for _, tc := range vals[1:] {
				v, c, _ := strings.Cut(tc, ":")
				terms = append(terms, lp.Term{Var: int(num(v)), Coef: num(c)})
			}
			if err := p.AddConstraint(terms, op, num(vals[0])); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestLadderRefactorizesAtLastBasis pins the fallback ladder's first rung on
// a real model: from the slack basis the dual simplex solves this IAC zone
// root relaxation but fails the final residual check, and refactorizing at
// the last basis it reached recovers an optimal answer the exact oracle
// agrees with. The start was the slack basis, so the slack restart rung
// does not exist here: the answer can only have come from the refactorize
// rung.
func TestLadderRefactorizesAtLastBasis(t *testing.T) {
	p := loadLP(t, "testdata/iac_zone_root.txt")
	s := lp.NewSolver()
	ctx := context.Background()
	if _, err := s.WarmAttempt(ctx, p, nil, nil, nil); !errors.Is(err, lp.ErrWarmStart) {
		t.Fatalf("single run from the slack basis: err = %v, want ErrWarmStart (the rung is not reached otherwise)", err)
	}
	_, fallbacksBefore := lp.WarmStats()
	sol, err := s.WarmSolve(ctx, p, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, fallbacks := lp.WarmStats(); fallbacks != fallbacksBefore+1 {
		t.Errorf("fallback counter moved by %d, want 1", fallbacks-fallbacksBefore)
	}
	if sol.Status != lp.Optimal || sol.WarmStarted || sol.Basis == nil {
		t.Fatalf("status %v, warmStarted %v, basis %v; want an optimal cold answer with a basis", sol.Status, sol.WarmStarted, sol.Basis)
	}
	st, obj, _, _ := lp.NewOracle(p).Solve(nil, nil)
	if st != lp.Optimal || math.Abs(sol.Objective-obj) > 1e-7*math.Max(1, math.Abs(obj)) {
		t.Fatalf("objective %v, oracle %v %v", sol.Objective, st, obj)
	}
	if ok, err := p.CheckFeasible(sol.X, 1e-6); err != nil || !ok {
		t.Fatalf("optimal point violates the constraints (%v)", err)
	}
}

package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// FuzzSimplexCovering stresses the solver with randomized covering LPs: it
// must terminate with status Optimal, and the solution must satisfy every
// constraint (verified independently by CheckFeasible).
// fuzzCoveringProblem builds the randomized covering LP shared by the
// fuzzers: n variables with random costs and unit upper bounds, m GE rows.
func fuzzCoveringProblem(t *testing.T, seed int64, n, m int) *Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := NewProblem()
	for i := 0; i < n; i++ {
		v := p.AddVariable("x", 0.5+rng.Float64()*5)
		if err := p.SetUpperBound(v, 1+rng.Float64()*3); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < m; k++ {
		var terms []Term
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				terms = append(terms, Term{Var: i, Coef: 0.5 + rng.Float64()})
			}
		}
		if len(terms) == 0 {
			terms = []Term{{Var: rng.Intn(n), Coef: 1}}
		}
		if err := p.AddConstraint(terms, GE, rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// FuzzWarmStart stresses the warm-solve entry point: a randomized covering
// LP is solved from the slack basis for its root basis, then re-solved warm
// under fuzzed bound overrides. The warm result must match the exact oracle
// in status and objective, and its point must satisfy the constraints — the
// fallback ladder may fire, but never a wrong answer.
func FuzzWarmStart(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(5), uint16(0x0f), uint16(0x03))
	f.Add(int64(42), uint8(9), uint8(12), uint16(0xa5), uint16(0x5a))
	f.Add(int64(-7), uint8(2), uint8(1), uint16(1), uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mRaw uint8, fixUpMask, fixDownMask uint16) {
		n := int(nRaw%12) + 1
		m := int(mRaw%15) + 1
		p := fuzzCoveringProblem(t, seed, n, m)
		s := NewSolver()
		root, err := s.WarmSolve(nil, p, nil, nil, nil)
		if err != nil {
			t.Fatalf("root solve: %v", err)
		}
		if root.Status != Optimal {
			return // infeasible instance: nothing to warm-start from
		}
		lower := map[int]float64{}
		upper := map[int]float64{}
		for i := 0; i < n && i < 16; i++ {
			if fixUpMask&(1<<i) != 0 {
				lower[i] = 1
			}
			if fixDownMask&(1<<i) != 0 {
				upper[i] = 0.5
			}
		}
		warm, err := s.WarmSolve(nil, p, lower, upper, root.Basis)
		if err != nil {
			t.Fatalf("warm solve: %v", err)
		}
		want := ratSolve(p, lower, upper)
		if warm.Status != want.status {
			t.Fatalf("warm status %v, oracle %v (lower=%v upper=%v)", warm.Status, want.status, lower, upper)
		}
		if warm.Status != Optimal {
			return
		}
		if obj := want.objFloat(); math.Abs(warm.Objective-obj) > 1e-6*math.Max(1, math.Abs(obj)) {
			t.Fatalf("warm objective %v, oracle %v (lower=%v upper=%v)", warm.Objective, obj, lower, upper)
		}
		ok, err := p.CheckFeasible(warm.X, 1e-5)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("warm optimal point violates constraints: %v", warm.X)
		}
		for v, lb := range lower {
			if warm.X[v] < lb-1e-6 {
				t.Fatalf("warm point violates lower override x[%d]=%v < %v", v, warm.X[v], lb)
			}
		}
		for v, ub := range upper {
			if warm.X[v] > ub+1e-6 {
				t.Fatalf("warm point violates upper override x[%d]=%v > %v", v, warm.X[v], ub)
			}
		}
	})
}

func FuzzSimplexCovering(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(5))
	f.Add(int64(42), uint8(9), uint8(12))
	f.Add(int64(-7), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mRaw uint8) {
		n := int(nRaw%12) + 1
		m := int(mRaw%15) + 1
		rng := rand.New(rand.NewSource(seed))
		p := NewProblem()
		for i := 0; i < n; i++ {
			v := p.AddVariable("x", 0.5+rng.Float64()*5)
			if err := p.SetUpperBound(v, 1+rng.Float64()*3); err != nil {
				t.Fatal(err)
			}
		}
		for k := 0; k < m; k++ {
			var terms []Term
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 0 {
					terms = append(terms, Term{Var: i, Coef: 0.5 + rng.Float64()})
				}
			}
			if len(terms) == 0 {
				terms = []Term{{Var: rng.Intn(n), Coef: 1}}
			}
			if err := p.AddConstraint(terms, GE, rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		sol, err := p.Solve()
		if err != nil {
			t.Fatalf("solve error: %v", err)
		}
		switch sol.Status {
		case Optimal:
			ok, err := p.CheckFeasible(sol.X, 1e-5)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("optimal point violates constraints: %v", sol.X)
			}
			obj, err := p.Objective(sol.X)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(obj-sol.Objective) > 1e-6*math.Max(1, math.Abs(obj)) {
				t.Fatalf("objective mismatch: %v vs %v", obj, sol.Objective)
			}
		case Infeasible:
			// Possible when a demand exceeds the sum of upper bounds.
		default:
			t.Fatalf("unexpected status %v for bounded covering LP", sol.Status)
		}
	})
}

// fuzzGeneralProblem builds a small LP of the accepted class with every
// feature the solver supports: mixed LE/GE/EQ rows with signed coefficients
// and right-hand sides, zero, positive and negative costs, finite and
// infinite upper bounds, and lower/upper overrides, crossed ones included.
// A negative-cost column gets its finite upper bound from the problem or,
// sometimes, only from an upper override. Most rows hold at a random anchor
// point inside the bounds, so about half of the LPs are feasible. Values
// are multiples of 0.5 (0.25 for anchored right-hand sides), so ties and
// degenerate vertices are common and infeasibility margins stay far from
// the solver's tolerances.
func fuzzGeneralProblem(t *testing.T, seed int64, nRaw, mRaw uint8) (p *Problem, lower, upper map[int]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	half := func(lo, hi int) float64 { return float64(lo+rng.Intn(hi-lo+1)) / 2 }
	n := int(nRaw%8) + 1
	m := int(mRaw%8) + 1
	p = NewProblem()
	lower, upper = map[int]float64{}, map[int]float64{}
	anchor := make([]float64, n)
	for i := 0; i < n; i++ {
		cost := 0.0
		if rng.Intn(4) != 0 {
			cost = half(-4, 4)
		}
		v := p.AddVariable("x", cost)
		switch {
		case cost < 0 && rng.Intn(4) == 0:
			upper[v] = half(0, 6) // the override alone bounds it
		case cost < 0 || rng.Intn(2) == 0:
			if err := p.SetUpperBound(v, half(0, 6)); err != nil {
				t.Fatal(err)
			}
		}
		if rng.Intn(3) == 0 {
			lower[v] = half(-1, 4)
		}
		if _, ok := upper[v]; !ok && rng.Intn(3) == 0 {
			upper[v] = half(-1, 6)
		}
		lo, up := math.Max(lower[v], 0), math.Min(p.ub[v], 4)
		if u, ok := upper[v]; ok {
			up = math.Min(up, math.Max(u, 0))
		}
		anchor[v] = math.Max(lo, math.Min(up, half(0, 8)))
	}
	for k := 0; k < m; k++ {
		var terms []Term
		act := 0.0
		for i := 0; i < n; i++ {
			if rng.Intn(3) != 0 {
				c := half(-6, 6)
				terms = append(terms, Term{Var: i, Coef: c})
				act += c * anchor[i]
			}
		}
		op := Op(1 + rng.Intn(3))
		rhs := half(-8, 8)
		if rng.Intn(5) != 0 {
			switch op {
			case LE:
				rhs = act + half(0, 2)
			case GE:
				rhs = act - half(0, 2)
			case EQ:
				rhs = act
			}
		}
		if err := p.AddConstraint(terms, op, rhs); err != nil {
			t.Fatal(err)
		}
	}
	return p, lower, upper
}

// checkAgainstOracle fails t unless sol (from err) matches the exact oracle
// want in status and objective and, when optimal, its point satisfies every
// constraint, bound and override.
func checkAgainstOracle(t *testing.T, what string, p *Problem, lower, upper map[int]float64, sol *Solution, err error, want ratResult) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if sol.Status != want.status {
		t.Fatalf("%s: status %v, oracle %v (lower=%v upper=%v)", what, sol.Status, want.status, lower, upper)
	}
	if sol.Status != Optimal {
		return
	}
	if obj := want.objFloat(); math.Abs(sol.Objective-obj) > 1e-6*math.Max(1, math.Abs(obj)) {
		t.Fatalf("%s: objective %v, oracle %v (lower=%v upper=%v)", what, sol.Objective, obj, lower, upper)
	}
	if ok, err := p.CheckFeasible(sol.X, 1e-6); err != nil || !ok {
		t.Fatalf("%s: optimal point %v violates the constraints (%v)", what, sol.X, err)
	}
	for v, lb := range lower {
		if sol.X[v] < lb-1e-6 {
			t.Fatalf("%s: x[%d] = %v below its lower override %v", what, v, sol.X[v], lb)
		}
	}
	for v, ub := range upper {
		if sol.X[v] > math.Max(ub, 0)+1e-6 {
			t.Fatalf("%s: x[%d] = %v above its upper override %v", what, v, sol.X[v], ub)
		}
	}
}

// FuzzGeneralLP is the differential fuzzer of the engine against the exact
// math/big oracle on general small LPs of the accepted class (see
// fuzzGeneralProblem): the plain solve from the slack basis, the root solve
// without overrides, and the warm re-solve from the root's basis under the
// overrides must all agree with the oracle.
func FuzzGeneralLP(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(4))
	f.Add(int64(7), uint8(7), uint8(7))
	f.Add(int64(-3), uint8(0), uint8(2))
	f.Add(int64(2024), uint8(5), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mRaw uint8) {
		p, lower, upper := fuzzGeneralProblem(t, seed, nRaw, mRaw)
		want := ratSolve(p, lower, upper)
		if want.unbounded {
			t.Fatalf("oracle: unbounded LP generated inside the accepted class")
		}
		s := NewSolver()
		sol, err := s.Solve(p, lower, upper)
		checkAgainstOracle(t, "solve", p, lower, upper, sol, err, want)

		// Negative-cost columns bounded only by an override are outside the
		// class without it, so the root solve keeps those overrides.
		rootUpper := map[int]float64{}
		for v, ub := range upper {
			if p.obj[v] < 0 && math.IsInf(p.ub[v], 1) {
				rootUpper[v] = ub
			}
		}
		root, err := s.WarmSolve(context.Background(), p, nil, rootUpper, nil)
		checkAgainstOracle(t, "root", p, nil, rootUpper, root, err, ratSolve(p, nil, rootUpper))
		if root.Status != Optimal {
			return
		}
		warm, err := s.WarmSolve(context.Background(), p, lower, upper, root.Basis)
		checkAgainstOracle(t, "warm", p, lower, upper, warm, err, want)
	})
}

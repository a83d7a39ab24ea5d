package lp

import (
	"math"
	"math/big"
)

// This file holds the package's exact test oracle: a small dense primal
// simplex over math/big. It shares nothing with the engine. Bounds become
// explicit rows, pivots follow Bland's rule (which terminates without any
// stall detector), and every sign test and ratio comparison is exact, so
// there are no float tolerances to disagree about.
//
// Arithmetic is fraction-free: every float64 input is a dyadic rational, so
// scaling each row by a power of two makes the data integers, and the
// tableau T = d * B^-1 [A | I | b] keeps integer entries with d = det(B)
// (up to sign); a pivot divides exactly by the previous d. That avoids the
// gcd normalization of big.Rat, which dominates a Rat tableau's cost on the
// 53-bit random coefficients the tests use. big.Rat holds the problem data
// and the answer.
//
// Every row is stated as coef.y <= rhs with its own slack, so the slack
// basis is always available: x = lb + y shifts the lower bounds away, an EQ
// row becomes two rows, and each finite upper bound is one y_i <= ub_i - lb_i
// row. Negative right-hand sides are handled by a phase 1 with a single
// artificial column, which also lets a solve start from any earlier basis:
// solveWarm keeps the optimal tableau of the unperturbed problem and
// re-solves bound perturbations from it, recomputing only the right-hand
// side, because the rows (and so every tableau column) do not depend on the
// bounds.

// ratResult is the oracle's verdict on one LP.
type ratResult struct {
	status    Status    // Optimal or Infeasible; unset when unbounded
	unbounded bool      // phase 2 found an improving ray (outside the accepted class)
	obj       *big.Rat  // optimal objective (status Optimal only)
	x         []float64 // optimal vertex, rounded (status Optimal only)
}

// objFloat returns the exact optimum rounded to the nearest float64.
func (r ratResult) objFloat() float64 {
	f, _ := r.obj.Float64()
	return f
}

// ratOracle solves one problem under varying bound overrides.
type ratOracle struct {
	p      *Problem
	finite []bool      // variables with a finite upper bound in p (one bound row each)
	rows   [][]big.Int // row coefficients over the n structurals, integer-scaled
	scale  []*big.Rat  // per-row scale (a power of two) that made rows integer
	cost   []big.Int   // integer-scaled structural costs
	root   *ratTableau // optimal tableau of p without overrides, once solved
}

// ratTableau is a fraction-free tableau over the n+m real columns
// (structural, then one slack per row), one artificial column and the
// right-hand side, in that order; the true tableau is t/d. basis[i] is row
// i's basic column.
type ratTableau struct {
	t     [][]big.Int
	d     big.Int
	basis []int
	tmp   big.Int
}

// ratSolve solves p exactly under the same bound-override contract as
// (*Solver).Solve: lower[v] > 0 raises x_v's lower bound, upper[v] lowers
// its upper bound (negative values clamp to 0).
func ratSolve(p *Problem, lower, upper map[int]float64) ratResult {
	return newRatOracle(p).solve(lower, upper, nil)
}

func newRatOracle(p *Problem) *ratOracle {
	n := len(p.obj)
	o := &ratOracle{p: p, finite: make([]bool, n)}
	add := func(coef []*big.Rat) {
		s := integerScale(coef)
		row := make([]big.Int, n)
		for j, a := range coef {
			row[j].Set(new(big.Rat).Mul(a, s).Num())
		}
		o.rows = append(o.rows, row)
		o.scale = append(o.scale, s)
	}
	zeros := func() []*big.Rat {
		v := make([]*big.Rat, n)
		for j := range v {
			v[j] = new(big.Rat)
		}
		return v
	}
	for _, c := range p.cons {
		coef := zeros()
		for _, t := range c.terms {
			coef[t.Var].Add(coef[t.Var], new(big.Rat).SetFloat64(t.Coef))
		}
		if c.op != GE {
			add(coef)
		}
		if c.op != LE {
			neg := zeros()
			for j, a := range coef {
				neg[j].Neg(a)
			}
			add(neg)
		}
	}
	for i, ub := range p.ub {
		if o.finite[i] = !math.IsInf(ub, 1); o.finite[i] {
			coef := zeros()
			coef[i].SetInt64(1)
			add(coef)
		}
	}
	costs := zeros()
	for j, c := range p.obj {
		costs[j].SetFloat64(c)
	}
	s := integerScale(costs)
	o.cost = make([]big.Int, n)
	for j, c := range costs {
		o.cost[j].Set(new(big.Rat).Mul(c, s).Num())
	}
	return o
}

// integerScale returns the smallest power of two that makes every value
// (dyadic, as all float64s are) an integer.
func integerScale(vals []*big.Rat) *big.Rat {
	bits := 0
	for _, v := range vals {
		if b := v.Denom().BitLen() - 1; b > bits {
			bits = b
		}
	}
	return new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), uint(bits)))
}

// solveWarm solves under the overrides, starting from the unperturbed
// problem's optimal basis (solved once and kept) when there is one.
func (o *ratOracle) solveWarm(lower, upper map[int]float64) ratResult {
	if o.root == nil {
		o.solve(nil, nil, nil)
	}
	return o.solve(lower, upper, o.root)
}

// solve runs phase 1 and phase 2 under the overrides from the slack basis,
// or from start's basis when start is non-nil.
func (o *ratOracle) solve(lower, upper map[int]float64, start *ratTableau) ratResult {
	p := o.p
	n := len(p.obj)
	lb := make([]*big.Rat, n)
	ub := append([]float64(nil), p.ub...)
	for j := range lb {
		lb[j] = new(big.Rat)
		if b := lower[j]; b > 0 {
			lb[j].SetFloat64(b)
		}
	}
	for v, b := range upper {
		if b = math.Max(b, 0); b < ub[v] {
			ub[v] = b
		}
	}
	for i := range ub {
		if !o.finite[i] && !math.IsInf(ub[i], 1) {
			// An override bounds a variable p leaves unbounded, which needs a
			// row o.rows lacks: bake the overrides into a problem copy.
			q := *p
			q.ub = ub
			return newRatOracle(&q).solve(lower, nil, nil)
		}
	}

	// Right-hand sides in the same row order as o.rows, shifted by lb.
	var rhs []*big.Rat
	k := 0
	for _, c := range p.cons {
		b := new(big.Rat).SetFloat64(c.rhs)
		for _, t := range c.terms {
			b.Sub(b, new(big.Rat).Mul(new(big.Rat).SetFloat64(t.Coef), lb[t.Var]))
		}
		if c.op != GE {
			rhs = append(rhs, new(big.Rat).Mul(b, o.scale[k]))
			k++
		}
		if c.op != LE {
			rhs = append(rhs, new(big.Rat).Neg(new(big.Rat).Mul(b, o.scale[k])))
			k++
		}
	}
	for i := range ub {
		if o.finite[i] {
			rhs = append(rhs, new(big.Rat).Sub(new(big.Rat).SetFloat64(ub[i]), lb[i]))
		}
	}
	rhsScale := integerScale(rhs)
	b := make([]big.Int, len(rhs))
	for i, r := range rhs {
		b[i].Set(new(big.Rat).Mul(r, rhsScale).Num())
	}

	t := o.tableau(b, start)
	real := n + len(b)
	if start != nil {
		// start is optimal for other bounds, so its reduced costs are
		// non-negative: only primal feasibility needs restoring.
		if !t.dual(t.price(o.cost, real), real) {
			return ratResult{status: Infeasible}
		}
	} else {
		if !t.phase1(real) {
			return ratResult{status: Infeasible}
		}
		if !t.iterate(real, t.price(o.cost, real)) {
			return ratResult{unbounded: true}
		}
	}
	if start == nil && len(lower) == 0 && len(upper) == 0 {
		o.root = t
	}

	val := make([]*big.Rat, n)
	for j := range val {
		val[j] = new(big.Rat).Set(lb[j])
	}
	for i, c := range t.basis {
		if c < n {
			y := new(big.Rat).SetFrac(&t.t[i][real+1], &t.d)
			val[c].Add(val[c], y.Quo(y, rhsScale))
		}
	}
	x := make([]float64, n)
	obj := new(big.Rat)
	for j, v := range val {
		x[j], _ = v.Float64()
		obj.Add(obj, v.Mul(v, new(big.Rat).SetFloat64(p.obj[j])))
	}
	return ratResult{status: Optimal, obj: obj, x: x}
}

// tableau builds the fraction-free tableau for right-hand side b: the slack
// tableau [A | I | 0 | b] with d = 1, or a copy of start's real columns
// with the right-hand side recomputed as d*B^-1 b. Slack column k of start
// holds d*B^-1 e_k, so that is one dot product per row.
func (o *ratOracle) tableau(b []big.Int, start *ratTableau) *ratTableau {
	n, m := len(o.p.obj), len(b)
	real := n + m
	t := &ratTableau{t: make([][]big.Int, m), basis: make([]int, m)}
	for i := range t.t {
		t.t[i] = make([]big.Int, real+2)
	}
	if start == nil {
		t.d.SetInt64(1)
		for i, row := range t.t {
			for j := range o.rows[i] {
				row[j].Set(&o.rows[i][j])
			}
			row[n+i].SetInt64(1)
			row[real+1].Set(&b[i])
			t.basis[i] = n + i
		}
		return t
	}
	t.d.Set(&start.d)
	copy(t.basis, start.basis)
	for i, row := range t.t {
		for j := 0; j < real; j++ {
			row[j].Set(&start.t[i][j])
		}
		for k := range b {
			if s := &start.t[i][n+k]; s.Sign() != 0 && b[k].Sign() != 0 {
				row[real+1].Add(&row[real+1], t.tmp.Mul(s, &b[k]))
			}
		}
	}
	return t
}

// sign returns the sign of the true tableau entry v/d.
func (t *ratTableau) sign(v *big.Int) int { return v.Sign() * t.d.Sign() }

// phase1 makes the basis primal feasible. If some basic value is negative,
// the artificial column (index real) gets true entry -1 in exactly those
// rows and enters at the most negative one, which makes every basic value
// non-negative; Bland's rule then minimizes the artificial. A positive
// minimum proves the LP infeasible.
func (t *ratTableau) phase1(real int) bool {
	rhs := real + 1
	r := -1
	for i, row := range t.t {
		if t.sign(&row[rhs]) < 0 && (r < 0 || row[rhs].Cmp(&t.t[r][rhs])*t.d.Sign() < 0) {
			r = i
		}
	}
	if r < 0 {
		return true
	}
	for _, row := range t.t {
		if t.sign(&row[rhs]) < 0 {
			row[real].Neg(&t.d)
		}
	}
	cost := make([]big.Int, real+2)
	cost[real].Set(&t.d) // d * (artificial cost 1); no basic column costs anything
	t.pivot(r, real, cost)
	t.iterate(real+1, cost)
	for i, c := range t.basis {
		if c != real {
			continue
		}
		if t.t[i][rhs].Sign() != 0 {
			return false
		}
		// Basic at zero: pivot it out on any real column. The row has one,
		// since [A | I] has full row rank.
		for j := 0; j < real; j++ {
			if t.t[i][j].Sign() != 0 {
				t.pivot(i, j, cost)
				break
			}
		}
	}
	return true
}

// price returns the reduced-cost row (times d) of the integer structural
// costs c for the current basis; slacks cost nothing.
func (t *ratTableau) price(c []big.Int, real int) []big.Int {
	cost := make([]big.Int, real+2)
	for j := range c {
		cost[j].Mul(&t.d, &c[j])
	}
	for i, bc := range t.basis {
		if bc >= len(c) || c[bc].Sign() == 0 {
			continue
		}
		for j := range t.t[i] {
			if v := &t.t[i][j]; v.Sign() != 0 {
				cost[j].Sub(&cost[j], t.tmp.Mul(&c[bc], v))
			}
		}
	}
	return cost
}

// dual runs the dual simplex under Bland's rule from a basis whose reduced
// costs are non-negative: the leaving row is the one with the lowest-index
// basic column among those with a negative value, the entering column the
// minimum ratio d_j/|t_rj| over the first limit columns with t_rj < 0,
// ties to the lowest index. It reports false when a leaving row has no
// such column, which proves the LP infeasible.
func (t *ratTableau) dual(cost []big.Int, limit int) bool {
	rhs := len(cost) - 1
	var lhs, rhv big.Int
	for {
		r := -1
		for i, row := range t.t {
			if t.sign(&row[rhs]) < 0 && (r < 0 || t.basis[i] < t.basis[r]) {
				r = i
			}
		}
		if r < 0 {
			return true
		}
		pr := t.t[r]
		c := -1
		for j := 0; j < limit; j++ {
			if t.sign(&pr[j]) >= 0 {
				continue
			}
			// cost[j]/-pr[j] < cost[c]/-pr[c], cross-multiplied by the
			// positive pr[j]*pr[c].
			if c < 0 || lhs.Mul(&cost[j], &pr[c]).Cmp(rhv.Mul(&cost[c], &pr[j])) > 0 {
				c = j
			}
		}
		if c < 0 {
			return false
		}
		t.pivot(r, c, cost)
	}
}

// iterate runs Bland's rule over the first limit columns: the entering
// column is the lowest-index one with a negative reduced cost, the leaving
// row the minimum ratio with ties to the lowest basic index. It reports
// false when an entering column has no positive entry (unbounded).
func (t *ratTableau) iterate(limit int, cost []big.Int) bool {
	rhs := len(cost) - 1
	var lhs, rhv big.Int
	for {
		c := -1
		for j := 0; j < limit; j++ {
			if t.sign(&cost[j]) < 0 {
				c = j
				break
			}
		}
		if c < 0 {
			return true
		}
		r := -1
		for i, row := range t.t {
			if t.sign(&row[c]) <= 0 {
				continue
			}
			if r >= 0 {
				// Compare row[rhs]/row[c] with the incumbent's ratio; both
				// denominators share d's sign, so cross-multiplying keeps
				// the order.
				cmp := lhs.Mul(&row[rhs], &t.t[r][c]).Cmp(rhv.Mul(&t.t[r][rhs], &row[c]))
				if cmp > 0 || (cmp == 0 && t.basis[i] > t.basis[r]) {
					continue
				}
			}
			r = i
		}
		if r < 0 {
			return false
		}
		t.pivot(r, c, cost)
	}
}

// pivot makes column c basic in row r: every other row (and the cost row)
// becomes (p*v - v_c*row_r)/d with p the pivot entry, which divides exactly;
// row r is unchanged and p becomes the new d.

func (t *ratTableau) pivot(r, c int, cost []big.Int) {
	pr := t.t[r]
	p := new(big.Int).Set(&pr[c])
	f := new(big.Int)
	update := func(row []big.Int) {
		f.Set(&row[c])
		for j := range row {
			v := &row[j]
			if v.Sign() == 0 && (f.Sign() == 0 || pr[j].Sign() == 0) {
				continue
			}
			v.Mul(v, p)
			if f.Sign() != 0 && pr[j].Sign() != 0 {
				v.Sub(v, t.tmp.Mul(f, &pr[j]))
			}
			v.Quo(v, &t.d)
		}
	}
	for i, row := range t.t {
		if i != r {
			update(row)
		}
	}
	update(cost)
	t.d.Set(p)
	t.basis[r] = c
}

package lp

import (
	"context"
	"fmt"
	"math"
	"sort"

	"sagrelay/internal/fault"
	"sagrelay/internal/obs"
)

// The solver works on the problem in bounded-variable form: rows are only
// the problem's own constraints (no explicit bound rows), every constraint
// k gets a logical variable s_k with
//
//	a_k.x + s_k = b_k,   s_k in [0,+Inf) (LE) | (-Inf,0] (GE) | [0,0] (EQ)
//
// and variable bounds are implicit — nonbasic columns sit at a bound
// (AtLower/AtUpper). Because bounds never appear in the matrix, a
// branch-and-bound child that differs from its parent by one variable
// bound has the *same* matrix, so the parent's optimal basis stays
// structurally valid and — since reduced costs do not depend on bounds —
// dual feasible. The dual simplex then repairs primal feasibility in a
// handful of pivots. A solve with no parent basis starts from the slack
// basis (every logical basic), which the raw [A | I | b] already
// factorizes; with every negative-cost column bounded above it is dual
// feasible after bound flips alone, so no primal phase is ever needed.

// lpPivotsPerSolve is the process-wide distribution of dual simplex pivots
// per completed LP solve (across the fallback ladder's rungs).
var lpPivotsPerSolve = obs.Default.NewHistogram(
	"sag_lp_pivots_per_solve",
	"Simplex pivots per completed LP solve.",
	obs.CountBuckets,
)

// sitePivot is the fault-injection point inside the simplex iteration loop,
// polled at the same cadence as the context check (every ctxCheckMask+1
// pivots) so chaos tests can fail, stall or "cancel" a solve mid-pivot.
var sitePivot = fault.Register("lp.pivot")

// ctxCheckMask gates how often the iteration loop polls the context: every
// ctxCheckMask+1 pivots. Polling costs an atomic load plus an interface
// call, which is noise next to a dense pivot but would still be wasteful at
// every iteration of small tableaus.
const ctxCheckMask = 63

// pivotEps is the tolerance below which a coefficient is treated as zero
// in the dual ratio test.
const pivotEps = 1e-9

// feasEps is the primal feasibility tolerance on basic values.
const feasEps = 1e-7

// singEps is the pivot tolerance below which a column is treated as
// linearly dependent during basis refactorization.
const singEps = 1e-8

// dualEps is the reduced-cost tolerance for dual feasibility.
const dualEps = 1e-7

// dualStallLimit is the number of consecutive dual iterations without
// primal-infeasibility progress after which pivot selection switches to
// Bland's rule (deterministic anti-cycling; Bland's dual rule terminates).
const dualStallLimit = 100

// dualCand is one candidate of the dual ratio test.
type dualCand struct {
	j     int
	ratio float64
	abs   float64 // |alpha_rj|
}

// warmAttempt runs the bound-flipping dual simplex from basis, or from the
// slack basis when basis is nil; s.lb/s.ub must hold the effective bounds
// (see load). With hot set, s.rows already hold the tableau factorized for
// basis (see Solver.hot) and the rebuild and refactorization are skipped.
// Any condition that makes the starting basis unusable returns an error
// wrapping ErrWarmStart (the caller walks the fallback ladder); context
// and fault errors are returned untyped so they propagate instead.
func (s *Solver) warmAttempt(ctx context.Context, p *Problem, basis *Basis, hot bool) (*Solution, error) {
	n, m := len(p.obj), len(p.cons)
	ncols := n + m
	if basis != nil && basis.Len() != ncols {
		return nil, fmt.Errorf("%w: basis has %d columns, problem has %d", ErrWarmStart, basis.Len(), ncols)
	}
	// An empty variable domain is infeasible outright.
	for i := 0; i < n; i++ {
		if s.lb[i] > s.ub[i] {
			return &Solution{Status: Infeasible}, nil
		}
	}

	// Column bounds: structural then logical.
	s.low = grow(s.low, ncols)
	s.upp = grow(s.upp, ncols)
	copy(s.low, s.lb[:n])
	copy(s.upp, s.ub[:n])
	for k, c := range p.cons {
		switch c.op {
		case LE:
			s.low[n+k], s.upp[n+k] = 0, math.Inf(1)
		case GE:
			s.low[n+k], s.upp[n+k] = math.Inf(-1), 0
		case EQ:
			s.low[n+k], s.upp[n+k] = 0, 0
		default:
			return nil, fmt.Errorf("lp: internal: invalid op %v", c.op)
		}
	}

	if !hot {
		if err := s.factorize(p, basis); err != nil {
			return nil, err
		}
	}

	// Reduced costs d = c - c_B^T B^-1 A (structural costs from the
	// objective, logical costs zero).
	s.d = grow(s.d, ncols)
	copy(s.d, p.obj)
	for j := n; j < ncols; j++ {
		s.d[j] = 0
	}
	for r := 0; r < m; r++ {
		b := s.basis[r]
		if b >= n || p.obj[b] == 0 {
			continue
		}
		cb := p.obj[b]
		row := s.rows[r]
		for j := 0; j < ncols; j++ {
			s.d[j] -= cb * row[j]
		}
	}
	for r := 0; r < m; r++ {
		s.d[s.basis[r]] = 0
	}

	// Repair nonbasic statuses for dual feasibility: a nonbasic column must
	// sit at the bound its reduced cost points away from. A parent basis is
	// dual feasible by construction, and the slack basis is once load has
	// rejected negative-cost columns without an upper bound, so repairs are
	// bound flips forced by the slack start, a crashed basis or tiny sign
	// drift; a repair that needs an infinite bound is genuine dual
	// infeasibility and abandons the starting basis.
	for j := 0; j < ncols; j++ {
		if s.status[j] == Basic {
			continue
		}
		lo, up := s.low[j], s.upp[j]
		if lo == up {
			s.status[j] = AtLower // fixed column; never enters
			continue
		}
		switch d := s.d[j]; {
		case d > dualEps:
			if math.IsInf(lo, -1) {
				return nil, fmt.Errorf("%w: dual infeasible at column %d", ErrWarmStart, j)
			}
			s.status[j] = AtLower
		case d < -dualEps:
			if math.IsInf(up, 1) {
				return nil, fmt.Errorf("%w: dual infeasible at column %d", ErrWarmStart, j)
			}
			s.status[j] = AtUpper
		default:
			if s.status[j] == AtLower && math.IsInf(lo, -1) {
				s.status[j] = AtUpper
			} else if s.status[j] == AtUpper && math.IsInf(up, 1) {
				s.status[j] = AtLower
			}
		}
	}

	// Basic values: x_B = B^-1 b - sum over nonbasic columns at a nonzero
	// bound. The rhs column was eliminated along with the rows, so
	// rows[r][ncols] already holds (B^-1 b)[r].
	s.xB = grow(s.xB, m)
	for r := 0; r < m; r++ {
		s.xB[r] = s.rows[r][ncols]
	}
	for j := 0; j < ncols; j++ {
		if s.status[j] == Basic {
			continue
		}
		v := s.low[j]
		if s.status[j] == AtUpper {
			v = s.upp[j]
		}
		if v == 0 {
			continue
		}
		for r := 0; r < m; r++ {
			s.xB[r] -= s.rows[r][j] * v
		}
	}

	maxIts := p.maxIts
	if maxIts <= 0 {
		maxIts = 50000 + 50*(m+n)
	}
	return s.dualSimplex(ctx, p, maxIts)
}

// factorize rebuilds the raw tableau [A | I | b] in the Solver's buffers
// and factorizes it for basis, or for the slack basis when basis is nil.
func (s *Solver) factorize(p *Problem, basis *Basis) error {
	n, m := len(p.obj), len(p.cons)
	ncols := n + m
	// Raw tableau [A | I | b], one flat backing array reused across solves.
	width := ncols + 1
	s.flat = grow(s.flat, m*width)
	clear(s.flat)
	if cap(s.rows) < m {
		s.rows = make([][]float64, m)
	}
	s.rows = s.rows[:m]
	for k := 0; k < m; k++ {
		s.rows[k] = s.flat[k*width : (k+1)*width]
		r := s.rows[k]
		for _, t := range p.cons[k].terms {
			r[t.Var] += t.Coef
		}
		r[n+k] = 1
		r[ncols] = p.cons[k].rhs
	}

	s.status = growStatus(s.status, ncols)
	s.basis = growInt(s.basis, m)
	if basis == nil {
		// The slack basis: every logical basic in its own row, every
		// structural at its lower bound. The raw tableau is already
		// factorized for it (B = I), so there is nothing to eliminate.
		for j := 0; j < n; j++ {
			s.status[j] = AtLower
		}
		for r := 0; r < m; r++ {
			s.status[n+r] = Basic
			s.basis[r] = n + r
		}
		return nil
	}
	return s.refactorize(basis, n, m)
}

// refactorize eliminates each of basis's Basic columns from the raw
// tableau (ascending index, largest available pivot element —
// deterministic), then completes any degenerate remainder with logical
// (then structural) columns. A near-zero pivot means the basis went
// singular under the bound change.
func (s *Solver) refactorize(basis *Basis, n, m int) error {
	ncols := n + m
	copy(s.status, basis.status)
	for r := range s.basis {
		s.basis[r] = -1
	}
	for j := 0; j < ncols; j++ {
		if s.status[j] != Basic {
			continue
		}
		best, bestAbs := -1, singEps
		for r := 0; r < m; r++ {
			if s.basis[r] >= 0 {
				continue
			}
			if a := math.Abs(s.rows[r][j]); a > bestAbs {
				best, bestAbs = r, a
			}
		}
		if best < 0 {
			return fmt.Errorf("%w: singular basis at column %d", ErrWarmStart, j)
		}
		s.welim(best, j)
	}
	for r := 0; r < m; r++ {
		if s.basis[r] >= 0 {
			continue
		}
		pick := -1
		if s.status[n+r] != Basic && math.Abs(s.rows[r][n+r]) > singEps {
			pick = n + r // the row's own logical, the usual degenerate filler
		} else {
			for j := n; j < ncols && pick < 0; j++ {
				if s.status[j] != Basic && math.Abs(s.rows[r][j]) > singEps {
					pick = j
				}
			}
			for j := 0; j < n && pick < 0; j++ {
				if s.status[j] != Basic && math.Abs(s.rows[r][j]) > singEps {
					pick = j
				}
			}
		}
		if pick < 0 {
			return fmt.Errorf("%w: cannot complete degenerate basis at row %d", ErrWarmStart, r)
		}
		s.status[pick] = Basic
		s.welim(r, pick)
	}
	return nil
}

// welim makes column c basic in row r: scales the row, eliminates c from
// every other row (including the carried rhs column), and records the
// assignment. This is the refactorization workhorse — it is the same
// arithmetic as a simplex pivot but performs no pricing or ratio test, so
// it is not counted as an iteration.
func (s *Solver) welim(r, c int) {
	pr := s.rows[r]
	inv := 1 / pr[c]
	for j := range pr {
		pr[j] *= inv
	}
	pr[c] = 1
	for i := range s.rows {
		if i == r {
			continue
		}
		ri := s.rows[i][:len(pr)] // equal lengths: no bounds checks below
		f := ri[c]
		if f == 0 {
			continue
		}
		for j, v := range pr {
			ri[j] -= f * v
		}
		ri[c] = 0
	}
	s.basis[r] = c
}

// dualSimplex restores primal feasibility with bound-flipping dual pivots,
// pricing leaving rows with dual Devex weights (ties to the lowest basic
// variable index). A stall switches to Bland's rule; running out of the
// solve's pivot budget (maxIts pivots in s.pivots) or hitting non-finite
// values abandons the starting basis.
func (s *Solver) dualSimplex(ctx context.Context, p *Problem, maxIts int) (*Solution, error) {
	n, m := len(p.obj), len(p.cons)
	ncols := n + m
	s.weight = grow(s.weight, m)
	for r := range s.weight {
		s.weight[r] = 1
	}
	bland := s.forceBland
	stall := 0
	prevInfeas := math.Inf(1)
	its := 0 // pivots of this run; the budget counts s.pivots

	for {
		if its&ctxCheckMask == 0 {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			if err := fault.Check(sitePivot); err != nil {
				return nil, err
			}
		}

		// Price the leaving row: the most primal-infeasible basic variable,
		// Devex-weighted; under Bland's rule the violated row whose basic
		// variable has the lowest index.
		r := -1
		bestScore := 0.0
		var violation float64
		totalInfeas := 0.0
		for i := 0; i < m; i++ {
			b := s.basis[i]
			x := s.xB[i]
			var v float64
			if lo := s.low[b]; x < lo-feasEps {
				v = lo - x
			} else if up := s.upp[b]; x > up+feasEps {
				v = x - up
			} else {
				continue
			}
			totalInfeas += v
			if bland {
				if r < 0 || b < s.basis[r] {
					r, violation = i, v
				}
				continue
			}
			score := v * v / s.weight[i]
			if score > bestScore || (score == bestScore && r >= 0 && b < s.basis[r]) {
				r, bestScore, violation = i, score, v
			}
		}
		if math.IsNaN(totalInfeas) || math.IsInf(totalInfeas, 0) {
			return nil, fmt.Errorf("%w: %w", ErrWarmStart, ErrNumerical)
		}
		if r < 0 {
			break // primal feasible and dual feasible throughout: optimal
		}
		if s.pivots >= maxIts {
			return nil, fmt.Errorf("%w: %w after %d dual pivots", ErrWarmStart, ErrIterationLimit, s.pivots)
		}
		if !bland {
			if totalInfeas >= prevInfeas-1e-12 {
				if stall++; stall >= dualStallLimit {
					bland = true
					stall = 0
				}
			} else {
				stall = 0
			}
			prevInfeas = totalInfeas
		}

		leaving := s.basis[r]
		sigma := 1.0
		toBound := s.upp[leaving]
		leaveStatus := AtUpper
		if s.xB[r] < s.low[leaving]-feasEps {
			sigma = -1
			toBound = s.low[leaving]
			leaveStatus = AtLower
		}

		// Dual ratio test over nonbasic columns that can move x_B(r) toward
		// its violated bound while keeping every reduced cost on the right
		// side of zero. Candidates sorted by (ratio, index) — deterministic.
		row := s.rows[r]
		cands := s.cands[:0]
		for j := 0; j < ncols; j++ {
			st := s.status[j]
			if st == Basic || s.low[j] == s.upp[j] {
				continue
			}
			a := row[j]
			if a > -pivotEps && a < pivotEps {
				continue
			}
			sa := sigma * a
			if st == AtLower {
				if sa <= pivotEps {
					continue
				}
			} else if sa >= -pivotEps {
				continue
			}
			aa := math.Abs(a)
			cands = append(cands, dualCand{j: j, ratio: math.Abs(s.d[j]) / aa, abs: aa})
		}
		s.cands = cands[:0]
		if len(cands) == 0 {
			// Dual unbounded: no column can repair the violated row — the
			// subproblem is primal infeasible (the usual way a tightened
			// branch-and-bound child dies).
			return &Solution{Status: Infeasible, Iterations: s.pivots}, nil
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].ratio != cands[b].ratio {
				return cands[a].ratio < cands[b].ratio
			}
			return cands[a].j < cands[b].j
		})

		// Bound-flipping (long-step) walk: boxed candidates whose full flip
		// still leaves the row violated are flipped outright — one pivot's
		// worth of dual progress for an O(m) update — and the first
		// candidate that can finish the repair enters the basis. Bland mode
		// takes the plain shortest step for its termination guarantee.
		enter := -1
		delta := violation
		if bland {
			enter = cands[0].j
		} else {
			for _, c := range cands {
				lo, up := s.low[c.j], s.upp[c.j]
				if math.IsInf(lo, -1) || math.IsInf(up, 1) {
					enter = c.j
					break
				}
				flipGain := (up - lo) * c.abs
				if flipGain >= delta-1e-12 {
					enter = c.j
					break
				}
				delta -= flipGain
				var dlt float64
				if s.status[c.j] == AtLower {
					dlt = up - lo
					s.status[c.j] = AtUpper
				} else {
					dlt = lo - up
					s.status[c.j] = AtLower
				}
				for i := 0; i < m; i++ {
					s.xB[i] -= s.rows[i][c.j] * dlt
				}
			}
			if enter < 0 {
				// Every candidate flipped and the row is still out of
				// bounds: the flips exhausted all movement available in the
				// needed direction, a primal infeasibility certificate.
				return &Solution{Status: Infeasible, Iterations: s.pivots}, nil
			}
		}

		q := enter
		arq := row[q]
		tau := (s.xB[r] - toBound) / arq
		qVal := s.low[q]
		if s.status[q] == AtUpper {
			qVal = s.upp[q]
		}
		qVal += tau

		// Dual Devex weight maintenance (reference-framework update,
		// transposed from the primal rule). Any positive weights preserve
		// correctness; this fixed formula preserves determinism.
		ref := s.weight[r] / (arq * arq)
		for i := 0; i < m; i++ {
			if i == r {
				continue
			}
			aiq := s.rows[i][q]
			if aiq == 0 {
				continue
			}
			s.xB[i] -= aiq * tau
			if w := aiq * aiq * ref; w > s.weight[i] {
				s.weight[i] = w
			}
		}
		s.xB[r] = qVal
		s.weight[r] = math.Max(ref, 1)

		// Pivot: scale row r, eliminate q elsewhere and from the reduced
		// costs.
		inv := 1 / arq
		for j := range row {
			row[j] *= inv
		}
		row[q] = 1
		for i := 0; i < m; i++ {
			if i == r {
				continue
			}
			ri := s.rows[i][:len(row)]
			f := ri[q]
			if f == 0 {
				continue
			}
			for j, v := range row {
				ri[j] -= f * v
			}
			ri[q] = 0
		}
		if dq := s.d[q]; dq != 0 {
			for j := 0; j < ncols; j++ {
				s.d[j] -= dq * row[j]
			}
		}
		s.d[q] = 0
		s.status[leaving] = leaveStatus
		s.status[q] = Basic
		s.basis[r] = q
		its++
		s.pivots++
	}

	return s.warmSolution(p)
}

// warmSolution assembles and verifies the optimal solution of a completed
// dual simplex run. Verification re-checks dual feasibility and the row
// residuals against the original data — accumulated drift fails the run
// (typed, so the ladder refactorizes) rather than returning a subtly wrong
// answer.
func (s *Solver) warmSolution(p *Problem) (*Solution, error) {
	n, m := len(p.obj), len(p.cons)
	ncols := n + m
	for j := 0; j < ncols; j++ {
		if s.status[j] == Basic || s.low[j] == s.upp[j] {
			continue // fixed columns cannot move; their d sign is free
		}
		d := s.d[j]
		if (s.status[j] == AtLower && d < -1e-6) || (s.status[j] == AtUpper && d > 1e-6) {
			return nil, fmt.Errorf("%w: dual feasibility drifted at column %d", ErrWarmStart, j)
		}
	}

	full := s.valsScratch(ncols)
	for j := 0; j < ncols; j++ {
		switch s.status[j] {
		case AtLower:
			full[j] = s.low[j]
		case AtUpper:
			full[j] = s.upp[j]
		}
	}
	for r := 0; r < m; r++ {
		full[s.basis[r]] = s.xB[r]
	}

	x := make([]float64, n)
	copy(x, full[:n])
	for i := range x {
		if x[i] < 0 && x[i] > -feasEps {
			x[i] = 0
		}
	}
	obj := 0.0
	for j, c := range p.obj {
		if math.IsNaN(x[j]) || math.IsInf(x[j], 0) {
			return nil, fmt.Errorf("%w: %w", ErrWarmStart, ErrNumerical)
		}
		obj += c * x[j]
	}
	if math.IsNaN(obj) || math.IsInf(obj, 0) {
		return nil, fmt.Errorf("%w: %w", ErrWarmStart, ErrNumerical)
	}
	for k, c := range p.cons {
		act := 0.0
		for _, t := range c.terms {
			act += t.Coef * x[t.Var]
		}
		scale := math.Max(1, math.Abs(c.rhs))
		if resid := math.Abs(act + full[n+k] - c.rhs); resid > 1e-6*scale {
			return nil, fmt.Errorf("%w: row %d residual %g", ErrWarmStart, k, resid)
		}
	}

	return &Solution{Status: Optimal, X: x, Objective: obj, Iterations: s.pivots}, nil
}

// valsScratch returns s.vals sized to n and zeroed — scratch for the full
// (structural + logical) value vector used during solution assembly and
// residual verification.
func (s *Solver) valsScratch(n int) []float64 {
	if cap(s.vals) < n {
		s.vals = make([]float64, n)
	}
	s.vals = s.vals[:n]
	clear(s.vals)
	return s.vals
}

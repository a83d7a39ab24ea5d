// Package hitting solves geometric minimum hitting set instances: given the
// subscribers' feasible coverage disks and a finite set of candidate relay
// positions, pick the fewest candidates such that every disk contains at
// least one chosen point.
//
// The paper (Alg. 1, Step 4) invokes the minimum hitting set PTAS of
// Mustafa & Ray [5], which is greedy-seeded local search over bounded-size
// swaps. This package implements exactly that scheme: a greedy cover
// followed by (q -> q-1) improvement swaps for q <= MaxSwap. With unbounded
// swap size the local optimum approaches (1+eps)OPT; the default MaxSwap of
// 3 is the standard practical operating point.
package hitting

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"sagrelay/internal/geom"
)

// Instance is a hitting set instance over disks and candidate points.
type Instance struct {
	// Disks are the sets to hit (subscribers' feasible coverage circles).
	Disks []geom.Circle
	// Candidates are the available points (candidate relay positions).
	Candidates []geom.Point
	// Tol is added to each disk radius during membership tests; candidate
	// generators that place points exactly on circle boundaries (IAC) need
	// a small positive tolerance.
	Tol float64
}

// Options tune Solve.
type Options struct {
	// LocalSearch enables the improvement phase (on by default via Solve's
	// documented behaviour when using DefaultOptions).
	LocalSearch bool
	// MaxSwap bounds the swap size q in (q -> q-1) local moves; 0 means 3.
	MaxSwap int
	// MaxRounds bounds full local-search sweeps; 0 means 50.
	MaxRounds int
}

// DefaultOptions enables local search with swap size 3.
func DefaultOptions() Options { return Options{LocalSearch: true, MaxSwap: 3} }

func (o Options) withDefaults() Options {
	if o.MaxSwap <= 0 {
		o.MaxSwap = 3
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = 50
	}
	return o
}

// ErrUncoverable reports that some disk contains no candidate at all, so no
// hitting set exists over the given candidates.
var ErrUncoverable = errors.New("hitting: some disk contains no candidate point")

// Solution is a feasible hitting set.
type Solution struct {
	// Chosen are the selected candidate indices, sorted ascending.
	Chosen []int
	// GreedySize is the solution size before local search (== len(Chosen)
	// when local search is off or made no progress).
	GreedySize int
	// Rounds is the number of completed local-search sweeps.
	Rounds int
}

// bitset is a fixed-capacity set of disk indices.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

func (b bitset) orInto(o bitset) {
	for i := range b {
		b[i] |= o[i]
	}
}

// countNotIn returns |o \ b|: bits of o not present in b.
func (b bitset) countNotIn(o bitset) int {
	n := 0
	for i := range b {
		n += bits.OnesCount64(o[i] &^ b[i])
	}
	return n
}

// coveredBy reports whether s hits every disk of b (b &^ s == 0).
func (b bitset) coveredBy(s bitset) bool {
	for i := range b {
		if b[i]&^s[i] != 0 {
			return false
		}
	}
	return true
}

// coveredBy2 reports whether s and t together hit every disk of b.
func (b bitset) coveredBy2(s, t bitset) bool {
	for i := range b {
		if b[i]&^(s[i]|t[i]) != 0 {
			return false
		}
	}
	return true
}

// meets reports whether s hits some disk of b.
func (b bitset) meets(s bitset) bool {
	for i := range b {
		if b[i]&s[i] != 0 {
			return true
		}
	}
	return false
}

func (b bitset) popcount() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// hitSets returns, per candidate, the bitset of disks it hits. The sets
// share one backing array.
func (in *Instance) hitSets() []bitset {
	nW := (len(in.Disks) + 63) / 64
	words := make([]uint64, len(in.Candidates)*nW)
	sets := make([]bitset, len(in.Candidates))
	for c, p := range in.Candidates {
		s := bitset(words[c*nW : (c+1)*nW : (c+1)*nW])
		for d, disk := range in.Disks {
			if disk.Contains(p, in.Tol) {
				s.set(d)
			}
		}
		sets[c] = s
	}
	return sets
}

// Verify reports whether the chosen candidate indices hit every disk.
func (in *Instance) Verify(chosen []int) bool {
	for _, disk := range in.Disks {
		hit := false
		for _, c := range chosen {
			if c < 0 || c >= len(in.Candidates) {
				return false
			}
			if disk.Contains(in.Candidates[c], in.Tol) {
				hit = true
				break
			}
		}
		if !hit {
			return false
		}
	}
	return true
}

// Solve computes a hitting set. It returns ErrUncoverable when some disk
// contains no candidate. An instance with no disks yields an empty solution.
func (in *Instance) Solve(opts Options) (*Solution, error) {
	opts = opts.withDefaults()
	nD := len(in.Disks)
	if nD == 0 {
		return &Solution{Chosen: []int{}}, nil
	}
	if len(in.Candidates) == 0 {
		return nil, ErrUncoverable
	}
	hit := in.hitSets()

	// Coverage feasibility: every disk needs at least one candidate.
	coverable := newBitset(nD)
	for _, s := range hit {
		coverable.orInto(s)
	}
	if coverable.popcount() != nD {
		return nil, ErrUncoverable
	}

	chosen := greedy(hit, nD)
	sol := &Solution{GreedySize: len(chosen)}
	if opts.LocalSearch {
		var rounds int
		chosen, rounds = localSearch(hit, nD, chosen, opts)
		sol.Rounds = rounds
	}
	sort.Ints(chosen)
	sol.Chosen = chosen
	if !in.Verify(chosen) {
		// Defensive: the algorithms above maintain feasibility by
		// construction; a failure here is an internal bug, not user error.
		return nil, fmt.Errorf("hitting: internal: produced infeasible solution of size %d", len(chosen))
	}
	return sol, nil
}

// SolveMultiCover returns a set of candidates such that every disk
// contains at least demand distinct chosen points (a multi-hitting set).
// demand = 1 reduces to Solve without local search refinement beyond
// redundancy removal. It returns ErrUncoverable when some disk contains
// fewer than demand candidates in total.
//
// Multi-coverage is the dual-relay architecture of IEEE 802.16j MMR
// networks ([8], [9] in the paper's related work): every subscriber keeps
// a backup access relay, so any single relay failure leaves it covered.
func (in *Instance) SolveMultiCover(demand int) (*Solution, error) {
	if demand < 1 {
		return nil, fmt.Errorf("hitting: demand %d must be >= 1", demand)
	}
	nD := len(in.Disks)
	if nD == 0 {
		return &Solution{Chosen: []int{}}, nil
	}
	hit := in.hitSets()
	// Feasibility: every disk needs >= demand candidates.
	for d := range in.Disks {
		avail := 0
		for _, s := range hit {
			if s.has(d) {
				avail++
			}
		}
		if avail < demand {
			return nil, ErrUncoverable
		}
	}
	// Greedy multi-cover: pick the candidate reducing the most residual
	// demand, smallest index on ties.
	need := make([]int, nD)
	for d := range need {
		need[d] = demand
	}
	remaining := nD * demand
	chosen := make([]bool, len(in.Candidates))
	var order []int
	for remaining > 0 {
		best, bestGain := -1, 0
		for c, s := range hit {
			if chosen[c] {
				continue
			}
			gain := 0
			for d := 0; d < nD; d++ {
				if need[d] > 0 && s.has(d) {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = c, gain
			}
		}
		if best < 0 {
			return nil, ErrUncoverable // exhausted candidates (shouldn't happen)
		}
		chosen[best] = true
		order = append(order, best)
		for d := 0; d < nD; d++ {
			if need[d] > 0 && hit[best].has(d) {
				need[d]--
				remaining--
			}
		}
	}
	// Redundancy removal in reverse pick order.
	covers := func(sel []int, skip int) bool {
		for d := 0; d < nD; d++ {
			cnt := 0
			for _, c := range sel {
				if c != skip && hit[c].has(d) {
					cnt++
				}
			}
			if cnt < demand {
				return false
			}
		}
		return true
	}
	for i := len(order) - 1; i >= 0; i-- {
		if covers(order, order[i]) {
			order = append(order[:i], order[i+1:]...)
		}
	}
	sort.Ints(order)
	sol := &Solution{Chosen: order, GreedySize: len(order)}
	if !in.verifyMulti(order, demand) {
		return nil, fmt.Errorf("hitting: internal: multi-cover produced infeasible solution")
	}
	return sol, nil
}

// verifyMulti reports whether every disk contains >= demand chosen points.
func (in *Instance) verifyMulti(chosen []int, demand int) bool {
	for _, disk := range in.Disks {
		cnt := 0
		for _, c := range chosen {
			if c < 0 || c >= len(in.Candidates) {
				return false
			}
			if disk.Contains(in.Candidates[c], in.Tol) {
				cnt++
			}
		}
		if cnt < demand {
			return false
		}
	}
	return true
}

// VerifyMultiCover reports whether chosen satisfies the demand-fold
// coverage of every disk.
func (in *Instance) VerifyMultiCover(chosen []int, demand int) bool {
	return in.verifyMulti(chosen, demand)
}

// greedy repeatedly picks the candidate hitting the most not-yet-hit disks
// (smallest index on ties, for determinism).
func greedy(hit []bitset, nD int) []int {
	covered := newBitset(nD)
	var chosen []int
	remaining := nD
	for remaining > 0 {
		best, bestGain := -1, 0
		for c, s := range hit {
			if gain := covered.countNotIn(s); gain > bestGain {
				best, bestGain = c, gain
			}
		}
		if best < 0 {
			// Callers check coverability first; this is unreachable there.
			break
		}
		chosen = append(chosen, best)
		covered.orInto(hit[best])
		remaining = nD - covered.popcount()
	}
	return chosen
}

// localSearch improves the solution with (q -> q-1) swaps for q = 1..MaxSwap:
// q=1 removes redundant points; q=2 replaces two points with one; q=3
// replaces three with two. Sweeps repeat until a full round makes no
// progress or MaxRounds is hit. No move allocates: every move works in one
// per-call scratch and edits chosen in place.
func localSearch(hit []bitset, nD int, chosen []int, opts Options) ([]int, int) {
	s := newSearch(hit, nD)
	rounds := 0
	for rounds < opts.MaxRounds {
		rounds++
		var removed, swapped2, swapped3 bool
		chosen, removed = s.removeRedundant(chosen)
		if opts.MaxSwap >= 2 {
			chosen, swapped2 = s.swap21(chosen)
		}
		if opts.MaxSwap >= 3 {
			chosen, swapped3 = s.swap32(chosen)
		}
		if !removed && !swapped2 && !swapped3 {
			break
		}
	}
	return chosen, rounds
}

// search is localSearch's scratch. missing holds the disks that the chosen
// points outside the move under test leave unhit; useful holds swap32's
// candidates that hit at least one of them.
//
// The moves skip chosen points by value. That is exact because chosen never
// holds a point twice: greedy only picks points that hit an unhit disk, and
// a swap only adds candidates that hit a disk the rest of chosen misses
// (swap21 runs right after removeRedundant, so some disk is always missing).
type search struct {
	hit     []bitset
	all     bitset
	missing bitset
	useful  []int
}

func newSearch(hit []bitset, nD int) *search {
	nW := (nD + 63) / 64
	words := make([]uint64, 2*nW)
	s := &search{hit: hit, all: words[:nW:nW], missing: words[nW:], useful: make([]int, 0, len(hit))}
	for d := 0; d < nD; d++ {
		s.all.set(d)
	}
	return s
}

// uncover sets missing to the disks that no chosen point other than a, b
// and c hits (-1 skips nothing) and reports whether any disk is missing.
func (s *search) uncover(chosen []int, a, b, c int) bool {
	copy(s.missing, s.all)
	for _, v := range chosen {
		if v != a && v != b && v != c {
			for i, w := range s.hit[v] {
				s.missing[i] &^= w
			}
		}
	}
	for _, w := range s.missing {
		if w != 0 {
			return true
		}
	}
	return false
}

// without removes the entries at positions i < j < k (k = -1: only i and
// j) from chosen in place, keeping the order of the others.
func without(chosen []int, i, j, k int) []int {
	out := chosen[:0]
	for p, v := range chosen {
		if p != i && p != j && p != k {
			out = append(out, v)
		}
	}
	return out
}

// removeRedundant deletes chosen points whose disks are all covered by the
// rest (1 -> 0 swaps). It reports whether anything was removed.
func (s *search) removeRedundant(chosen []int) ([]int, bool) {
	removed := false
	for i := 0; i < len(chosen); {
		if !s.uncover(chosen, chosen[i], -1, -1) {
			chosen = append(chosen[:i], chosen[i+1:]...)
			removed = true
			continue
		}
		i++
	}
	return chosen, removed
}

// swap21 tries to replace a pair of chosen points with a single candidate
// (2 -> 1 swaps). It stops at the first successful swap of the sweep.
func (s *search) swap21(chosen []int) ([]int, bool) {
	for i := 0; i < len(chosen); i++ {
		for j := i + 1; j < len(chosen); j++ {
			pi, pj := chosen[i], chosen[j]
			s.uncover(chosen, pi, pj, -1)
			for c, h := range s.hit {
				if c != pi && c != pj && s.missing.coveredBy(h) {
					return append(without(chosen, i, j, -1), c), true
				}
			}
		}
	}
	return chosen, false
}

// swap32 tries to replace a triple of chosen points with two candidates
// (3 -> 2 swaps). To stay polynomial it only pairs candidates that each
// cover at least one disk the triple exclusively covered.
func (s *search) swap32(chosen []int) ([]int, bool) {
	for i := 0; i < len(chosen); i++ {
		for j := i + 1; j < len(chosen); j++ {
			for k := j + 1; k < len(chosen); k++ {
				pi, pj, pk := chosen[i], chosen[j], chosen[k]
				if !s.uncover(chosen, pi, pj, pk) {
					continue // no candidate helps
				}
				s.useful = s.useful[:0]
				for c, h := range s.hit {
					if c != pi && c != pj && c != pk && s.missing.meets(h) {
						s.useful = append(s.useful, c)
					}
				}
				for x, a := range s.useful {
					ha := s.hit[a]
					if s.missing.coveredBy(ha) {
						// Even a single candidate suffices: 3 -> 1.
						return append(without(chosen, i, j, k), a), true
					}
					for _, b := range s.useful[x+1:] {
						if s.missing.coveredBy2(ha, s.hit[b]) {
							return append(without(chosen, i, j, k), a, b), true
						}
					}
				}
			}
		}
	}
	return chosen, false
}

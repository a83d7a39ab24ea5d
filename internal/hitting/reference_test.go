package hitting

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"sagrelay/internal/geom"
)

// This file keeps the original map-and-clone local search as a test-only
// reference. The production search must reproduce its Chosen, GreedySize
// and Rounds exactly: it takes the same moves in the same order and only
// stops allocating while doing so.

func refHitSets(in *Instance) []bitset {
	sets := make([]bitset, len(in.Candidates))
	for c, p := range in.Candidates {
		s := newBitset(len(in.Disks))
		for d, disk := range in.Disks {
			if disk.Contains(p, in.Tol) {
				s.set(d)
			}
		}
		sets[c] = s
	}
	return sets
}

func refClone(b bitset) bitset {
	c := make(bitset, len(b))
	copy(c, b)
	return c
}

func refContainsAll(b, o bitset) bool {
	for i := range b {
		if o[i]&^b[i] != 0 {
			return false
		}
	}
	return true
}

// refSolve is Solve with the reference greedy and local search.
func refSolve(in *Instance, opts Options) (*Solution, error) {
	opts = opts.withDefaults()
	nD := len(in.Disks)
	if nD == 0 {
		return &Solution{Chosen: []int{}}, nil
	}
	if len(in.Candidates) == 0 {
		return nil, ErrUncoverable
	}
	hit := refHitSets(in)
	coverable := newBitset(nD)
	for _, s := range hit {
		coverable.orInto(s)
	}
	if coverable.popcount() != nD {
		return nil, ErrUncoverable
	}
	chosen := refGreedy(hit, nD)
	sol := &Solution{GreedySize: len(chosen)}
	if opts.LocalSearch {
		chosen, sol.Rounds = refLocalSearch(hit, nD, chosen, opts)
	}
	sort.Ints(chosen)
	sol.Chosen = chosen
	return sol, nil
}

func refGreedy(hit []bitset, nD int) []int {
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
			break
		}
		chosen = append(chosen, best)
		covered.orInto(hit[best])
		remaining = nD - covered.popcount()
	}
	return chosen
}

func refLocalSearch(hit []bitset, nD int, chosen []int, opts Options) ([]int, int) {
	rounds := 0
	for rounds < opts.MaxRounds {
		rounds++
		improved := false
		if refRemoveRedundant(hit, nD, &chosen) {
			improved = true
		}
		if opts.MaxSwap >= 2 && refSwap21(hit, nD, &chosen) {
			improved = true
		}
		if opts.MaxSwap >= 3 && refSwap32(hit, nD, &chosen) {
			improved = true
		}
		if !improved {
			break
		}
	}
	return chosen, rounds
}

func refCoverageWithout(hit []bitset, nD int, chosen []int, skip map[int]bool) bitset {
	cov := newBitset(nD)
	for _, c := range chosen {
		if skip[c] {
			continue
		}
		cov.orInto(hit[c])
	}
	return cov
}

func refRemoveRedundant(hit []bitset, nD int, chosen *[]int) bool {
	removed := false
	for i := 0; i < len(*chosen); {
		c := (*chosen)[i]
		rest := refCoverageWithout(hit, nD, *chosen, map[int]bool{c: true})
		if refContainsAll(rest, hit[c]) && rest.popcount() == nD {
			*chosen = append((*chosen)[:i], (*chosen)[i+1:]...)
			removed = true
			continue
		}
		i++
	}
	return removed
}

func refSwap21(hit []bitset, nD int, chosen *[]int) bool {
	ch := *chosen
	for i := 0; i < len(ch); i++ {
		for j := i + 1; j < len(ch); j++ {
			rest := refCoverageWithout(hit, nD, ch, map[int]bool{ch[i]: true, ch[j]: true})
			for c, s := range hit {
				if c == ch[i] || c == ch[j] {
					continue
				}
				merged := refClone(rest)
				merged.orInto(s)
				if merged.popcount() == nD {
					out := make([]int, 0, len(ch)-1)
					for k, v := range ch {
						if k != i && k != j {
							out = append(out, v)
						}
					}
					out = append(out, c)
					*chosen = out
					return true
				}
			}
		}
	}
	return false
}

func refSwap32(hit []bitset, nD int, chosen *[]int) bool {
	ch := *chosen
	if len(ch) < 3 {
		return false
	}
	for i := 0; i < len(ch); i++ {
		for j := i + 1; j < len(ch); j++ {
			for k := j + 1; k < len(ch); k++ {
				skip := map[int]bool{ch[i]: true, ch[j]: true, ch[k]: true}
				rest := refCoverageWithout(hit, nD, ch, skip)
				var useful []int
				for c, s := range hit {
					if skip[c] {
						continue
					}
					if rest.countNotIn(s) > 0 {
						useful = append(useful, c)
					}
				}
				for a := 0; a < len(useful); a++ {
					mergedA := refClone(rest)
					mergedA.orInto(hit[useful[a]])
					if mergedA.popcount() == nD {
						*chosen = refRebuild(ch, skip, useful[a])
						return true
					}
					for b := a + 1; b < len(useful); b++ {
						merged := refClone(mergedA)
						merged.orInto(hit[useful[b]])
						if merged.popcount() == nD {
							*chosen = refRebuild(ch, skip, useful[a], useful[b])
							return true
						}
					}
				}
			}
		}
	}
	return false
}

func refRebuild(chosen []int, skip map[int]bool, add ...int) []int {
	out := make([]int, 0, len(chosen))
	for _, v := range chosen {
		if !skip[v] {
			out = append(out, v)
		}
	}
	return append(out, add...)
}

// diffInstance draws a seeded instance with nD disks (clamped to 1..200)
// on a field dense enough that solutions stay small. Candidates are the
// disk centres, scattered points, and the crossing points of random disk
// pairs, which lie on both boundaries so that Tol decides their hits.
func diffInstance(seed int64, nD int, tol float64) *Instance {
	nD = min(max(nD, 1), 200)
	rng := rand.New(rand.NewSource(seed))
	side := 60 + rng.Float64()*240
	disks := make([]geom.Circle, nD)
	for i := range disks {
		disks[i] = geom.C(geom.Pt(rng.Float64()*side, rng.Float64()*side), 15+rng.Float64()*35)
	}
	var cands []geom.Point
	for i := range disks {
		if rng.Intn(3) > 0 {
			cands = append(cands, disks[i].Center)
		}
	}
	for n := rng.Intn(nD + 1); n > 0; n-- {
		cands = append(cands, geom.Pt(rng.Float64()*side, rng.Float64()*side))
	}
	for n := rng.Intn(2*nD + 1); n > 0; n-- {
		a, b := rng.Intn(nD), rng.Intn(nD)
		cands = append(cands, disks[a].Intersect(disks[b])...)
	}
	return &Instance{Disks: disks, Candidates: cands, Tol: tol}
}

// checkAgainstReference solves in with both searches and fails on any
// difference in error, Chosen, GreedySize or Rounds.
func checkAgainstReference(t *testing.T, in *Instance, opts Options) *Solution {
	t.Helper()
	got, gerr := in.Solve(opts)
	want, werr := refSolve(in, opts)
	if werr != nil || gerr != nil {
		if !errors.Is(gerr, werr) {
			t.Fatalf("disks=%d cands=%d tol=%g %+v: error %v, reference %v",
				len(in.Disks), len(in.Candidates), in.Tol, opts, gerr, werr)
		}
		return nil
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("disks=%d cands=%d tol=%g %+v:\n got  %+v\n want %+v",
			len(in.Disks), len(in.Candidates), in.Tol, opts, got, want)
	}
	return got
}

// TestLocalSearchMatchesReference runs both searches over seeded random
// instances of 1-200 disks (so bitsets span up to four words), Tol zero and
// positive, every swap size and both a single round and the default.
func TestLocalSearchMatchesReference(t *testing.T) {
	trials := 240
	if testing.Short() {
		trials = 80
	}
	rng := rand.New(rand.NewSource(20130708))
	var solved, improved, multiRound, multiWord int
	for trial := 0; trial < trials; trial++ {
		nD := 1 + rng.Intn(200)
		tol := 0.0
		if trial%2 == 1 {
			tol = 1e-7
		}
		opts := Options{LocalSearch: true, MaxSwap: 1 + trial%3}
		if trial%4 >= 2 {
			opts.MaxRounds = 1
		}
		in := diffInstance(rng.Int63(), nD, tol)
		sol := checkAgainstReference(t, in, opts)
		if sol == nil {
			continue
		}
		solved++
		if len(sol.Chosen) < sol.GreedySize {
			improved++
		}
		if sol.Rounds > 1 {
			multiRound++
		}
		if nD > 64 {
			multiWord++
		}
	}
	// The comparison means little unless the moves actually fire.
	if solved < trials/2 || improved == 0 || multiRound == 0 || multiWord == 0 {
		t.Fatalf("weak trial mix: %d/%d solved, %d improved on greedy, %d ran >1 round, %d multi-word",
			solved, trials, improved, multiRound, multiWord)
	}
	t.Logf("%d/%d solved, %d improved on greedy, %d ran >1 round, %d multi-word",
		solved, trials, improved, multiRound, multiWord)
}

// FuzzLocalSearch checks the search against the reference on instances
// from the same generator as TestLocalSearchMatchesReference.
func FuzzLocalSearch(f *testing.F) {
	f.Add(int64(1), uint8(12), false, uint8(3), uint8(0))
	f.Add(int64(7), uint8(70), true, uint8(2), uint8(1))
	f.Add(int64(42), uint8(150), true, uint8(3), uint8(0))
	f.Add(int64(-3), uint8(1), false, uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nD uint8, tolPos bool, maxSwap, maxRounds uint8) {
		tol := 0.0
		if tolPos {
			tol = 1e-7
		}
		opts := Options{LocalSearch: true, MaxSwap: 1 + int(maxSwap%3), MaxRounds: int(maxRounds % 4)}
		checkAgainstReference(t, diffInstance(seed, int(nD), tol), opts)
	})
}

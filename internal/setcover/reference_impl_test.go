// Reference implementations of the cover routines: the original map/slice
// based greedy and branch-and-bound code, kept verbatim (modulo the restored
// candidate-priming and string-key bugs documented below) as the ground
// truth the Engine's equivalence tests compare against. Nothing outside the
// package tests should call these.

package setcover

import (
	"fmt"
	"math/rand"
	"sort"
)

// greedyRef is the original map-based greedy cover (thesis Figure 7.2).
func greedyRef(universe []int, sets [][]int, rng *rand.Rand) []int {
	if len(universe) == 0 {
		return []int{}
	}
	uncovered := make(map[int]struct{}, len(universe))
	for _, v := range universe {
		uncovered[v] = struct{}{}
	}
	var chosen []int
	used := make([]bool, len(sets))
	for len(uncovered) > 0 {
		best, bestGain, ties := -1, 0, 0
		for i, s := range sets {
			if used[i] {
				continue
			}
			gain := 0
			for _, v := range s {
				if _, ok := uncovered[v]; ok {
					gain++
				}
			}
			switch {
			case gain > bestGain:
				best, bestGain, ties = i, gain, 1
			case gain == bestGain && gain > 0:
				ties++
				if rng != nil && rng.Intn(ties) == 0 {
					best = i
				}
			}
		}
		if best < 0 {
			return nil // uncoverable
		}
		used[best] = true
		chosen = append(chosen, best)
		for _, v := range sets[best] {
			delete(uncovered, v)
		}
	}
	sort.Ints(chosen)
	return chosen
}

// exactBBRef is the original branch-and-bound core, including the two
// hot-path defects the bitset rewrite removed: it dedups restricted
// candidates with fmt.Sprint string keys, and it primes the bound with a
// greedy pass over the unrestricted sets, redoing the restriction work.
// cap <= 0 means uncapped; (nil, true) means the optimum is >= cap.
func exactBBRef(universe []int, sets [][]int, cap int) (result []int, capped bool) {
	uniq := make(map[int]struct{}, len(universe))
	for _, v := range universe {
		uniq[v] = struct{}{}
	}
	elems := make([]int, 0, len(uniq))
	for v := range uniq {
		elems = append(elems, v)
	}
	sort.Ints(elems)
	pos := make(map[int]int, len(elems))
	for i, v := range elems {
		pos[v] = i
	}
	ne := len(elems)

	type cand struct {
		elems []int
		orig  int
	}
	var cands []cand
	seenKey := make(map[string]struct{})
	for i, s := range sets {
		var r []int
		for _, v := range s {
			if p, ok := pos[v]; ok {
				r = append(r, p)
			}
		}
		if len(r) == 0 {
			continue
		}
		sort.Ints(r)
		key := fmt.Sprint(r)
		if _, dup := seenKey[key]; dup {
			continue
		}
		seenKey[key] = struct{}{}
		cands = append(cands, cand{r, i})
	}
	kept := cands[:0]
	for i := range cands {
		dominated := false
		for j := range cands {
			if i == j || len(cands[i].elems) > len(cands[j].elems) {
				continue
			}
			if len(cands[i].elems) == len(cands[j].elems) && i < j {
				continue // equal sets were deduped; guard for safety
			}
			if subsetInts(cands[i].elems, cands[j].elems) {
				dominated = true
				break
			}
		}
		if !dominated {
			kept = append(kept, cands[i])
		}
	}
	cands = kept

	restricted := make([][]int, len(cands))
	memberOf := make([][]int, ne)
	for i, c := range cands {
		restricted[i] = c.elems
		for _, e := range c.elems {
			memberOf[e] = append(memberOf[e], i)
		}
	}
	for e := 0; e < ne; e++ {
		if len(memberOf[e]) == 0 {
			return nil, false // element not coverable
		}
	}

	greedyCover := greedyRef(universe, sets, nil)
	if greedyCover == nil {
		return nil, false
	}
	bestLen := len(greedyCover)
	best := append([]int(nil), greedyCover...)
	if cap > 0 && bestLen > cap {
		bestLen = cap
		best = nil
	}
	counts := make([]int, ne)
	coveredCount := 0
	var chosen []int

	maxSetSize := 0
	for _, r := range restricted {
		if len(r) > maxSetSize {
			maxSetSize = len(r)
		}
	}

	add := func(i int) {
		for _, e := range restricted[i] {
			if counts[e] == 0 {
				coveredCount++
			}
			counts[e]++
		}
		chosen = append(chosen, i)
	}
	undo := func(i int) {
		for _, e := range restricted[i] {
			counts[e]--
			if counts[e] == 0 {
				coveredCount--
			}
		}
		chosen = chosen[:len(chosen)-1]
	}

	var dfs func()
	dfs = func() {
		if coveredCount == ne {
			if len(chosen) < bestLen {
				bestLen = len(chosen)
				best = best[:0]
				for _, ci := range chosen {
					best = append(best, cands[ci].orig)
				}
			}
			return
		}
		remaining := ne - coveredCount
		lb := len(chosen) + (remaining+maxSetSize-1)/maxSetSize
		if lb >= bestLen {
			return
		}
		branch, branchDeg := -1, 1<<30
		for e := 0; e < ne; e++ {
			if counts[e] > 0 {
				continue
			}
			if d := len(memberOf[e]); d < branchDeg {
				branch, branchDeg = e, d
			}
		}
		for _, si := range memberOf[branch] {
			add(si)
			dfs()
			undo(si)
		}
	}
	dfs()
	if best == nil || (cap > 0 && bestLen >= cap) {
		return nil, true
	}
	out := append([]int(nil), best...)
	sort.Ints(out)
	return out, false
}

// subsetInts reports whether sorted slice a is a subset of sorted slice b.
func subsetInts(a, b []int) bool {
	i := 0
	for _, x := range a {
		for i < len(b) && b[i] < x {
			i++
		}
		if i >= len(b) || b[i] != x {
			return false
		}
		i++
	}
	return true
}

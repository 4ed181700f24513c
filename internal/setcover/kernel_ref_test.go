// The Engine's exact-cover kernel in its map-and-closure form: greedyBits
// and exactCore allocate their state on every call, and are the reference
// the Scratch-held exactSearch must match, chosen edge for chosen edge.
// Nothing outside the package tests calls them.

package setcover

import (
	"math/rand"

	"hypertree/internal/bitset"
	"hypertree/internal/budget"
)

// greedyBits runs the greedy cover over candidate bitsets, consuming
// uncovered in place. It returns indices into cands (in pick order), or nil
// if some element is uncoverable. The candidate iteration order and the
// reservoir tie-breaking replicate the reference implementation (greedyRef
// in the tests), so a shared rng advances identically on both paths.
func greedyBits(uncovered bitset.Set, cands []candSet, rng *rand.Rand) []int {
	var chosen []int
	used := make([]bool, len(cands))
	for uncovered.Any() {
		best, bestGain, ties := -1, 0, 0
		for i := range cands {
			if used[i] {
				continue
			}
			gain := cands[i].bits.AndCount(uncovered)
			switch {
			case gain > bestGain:
				best, bestGain, ties = i, gain, 1
			case gain == bestGain && gain > 0:
				ties++
				// Reservoir-sample among ties for the thesis's random
				// tie-breaking.
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
		uncovered.AndNot(cands[best].bits)
	}
	return chosen
}

// exactCore is the Engine's branch-and-bound over restricted candidates.
// universe holds the ne uncovered elements;
// cands must be non-empty restrictions with elems listing each candidate's
// element positions in 0..ne-1. It dedups equal candidates by bitset key,
// drops dominated (strict-subset) candidates, primes the bound with a
// greedy cover of the surviving candidates, and returns the chosen
// candidates' orig fields (unsorted), or (nil, false) if some element is
// uncoverable, or (nil, true) when cap > 0 and the optimum is >= cap.
//
// A positive enough turns the search into a first fit: it returns the first
// cover of at most enough candidates it meets (the greedy prime, when that
// is narrow enough) instead of proving a minimum. b, when non-nil, is
// polled (Check) at the first node and then every pollEvery nodes; once it
// reports stopped the search unwinds and returns cut = true with no result.
// A nil b never cuts.
func exactCore(universe bitset.Set, ne int, cands []candSet, cap, enough int, b *budget.B) (result []int, capped, cut bool) {
	// Deduplicate by bitset key: equal restrictions are interchangeable.
	seen := make(map[string]struct{}, len(cands))
	var keyBuf []byte
	kept := cands[:0]
	for _, c := range cands {
		keyBuf = c.bits.AppendKey(keyBuf[:0])
		if _, dup := seen[string(keyBuf)]; dup {
			continue
		}
		seen[string(keyBuf)] = struct{}{}
		kept = append(kept, c)
	}
	cands = kept
	// Remove dominated candidates: a strict subset can always be replaced by
	// its superset without growing the cover. Equal sets were just deduped,
	// so only strictly smaller candidates need the subset test.
	kept = cands[:0]
	for i := range cands {
		dominated := false
		for j := range cands {
			if i == j || len(cands[i].elems) >= len(cands[j].elems) {
				continue
			}
			if cands[i].bits.SubsetOf(cands[j].bits) {
				dominated = true
				break
			}
		}
		if !dominated {
			kept = append(kept, cands[i])
		}
	}
	cands = kept

	memberOf := make([][]int, ne)
	maxSetSize := 0
	for i := range cands {
		for _, e := range cands[i].elems {
			memberOf[e] = append(memberOf[e], i)
		}
		if len(cands[i].elems) > maxSetSize {
			maxSetSize = len(cands[i].elems)
		}
	}
	for e := 0; e < ne; e++ {
		if len(memberOf[e]) == 0 {
			return nil, false, false // element not coverable
		}
	}

	// Prime with a greedy cover of the restricted, deduplicated candidates
	// (every element is coverable here, so greedy cannot fail).
	prime := greedyBits(universe.Clone(), cands, nil)
	bestLen := len(prime)
	best := make([]int, 0, bestLen)
	for _, ci := range prime {
		best = append(best, cands[ci].orig)
	}
	if cap > 0 && bestLen > cap {
		bestLen = cap
		best = nil
	}
	if best != nil && bestLen <= enough {
		return best, false, false
	}

	// covered counts per element; coveredCount = elements with count > 0.
	counts := make([]int, ne)
	coveredCount := 0
	var chosen []int
	add := func(i int) {
		for _, e := range cands[i].elems {
			if counts[e] == 0 {
				coveredCount++
			}
			counts[e]++
		}
		chosen = append(chosen, i)
	}
	undo := func(i int) {
		for _, e := range cands[i].elems {
			counts[e]--
			if counts[e] == 0 {
				coveredCount--
			}
		}
		chosen = chosen[:len(chosen)-1]
	}

	polls := 0
	halt := false // the budget cut the search, or a first fit was found
	var dfs func()
	dfs = func() {
		if b != nil {
			if polls%pollEvery == 0 && !b.Check() {
				cut, halt = true, true
			}
			polls++
		}
		if halt {
			return
		}
		if coveredCount == ne {
			if len(chosen) < bestLen {
				bestLen = len(chosen)
				best = best[:0]
				for _, ci := range chosen {
					best = append(best, cands[ci].orig)
				}
				halt = bestLen <= enough
			}
			return
		}
		remaining := ne - coveredCount
		lb := len(chosen) + (remaining+maxSetSize-1)/maxSetSize
		if lb >= bestLen {
			return
		}
		// Branch on the uncovered element with fewest candidates.
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
			if halt {
				return
			}
		}
	}
	dfs()
	if cut {
		return nil, false, true
	}
	if best == nil || (cap > 0 && bestLen >= cap) {
		// Coverable (the memberOf check passed) but only at cap or above.
		return nil, true, false
	}
	return best, false, false
}

// Package setcover implements the set-cover routines used when turning tree
// decompositions into generalized hypertree decompositions: the greedy
// heuristic of thesis Figure 7.2, an exact branch-and-bound solver standing
// in for the thesis's IP solver (see DESIGN.md "Substitutions"), and the
// k-set-cover lower bound used by the tw-ksc-width heuristic (thesis §8.1.1).
//
// In every use in this repository the universe is a decomposition bag (a
// χ-set) and the candidate sets are the hypergraph's hyperedges; only the
// intersections of the hyperedges with the bag matter. Since the evaluators
// re-solve the same bags thousands of times across search states and GA
// generations, the hot paths are word-packed: elements live in
// bitset.Set values, gains are popcounts, and domination is a subset test.
// The memoizing Engine (engine.go) is the only entry point: it adds the
// per-hypergraph bag-cover cache on top of the bitset routines here. The
// original map/slice implementations live in the package's tests
// (reference_impl_test.go) as the ground truth the Engine is checked
// against.
package setcover

import (
	"slices"

	"hypertree/internal/bitset"
	"hypertree/internal/budget"
)

// candSet is one candidate set restricted to the universe: its elements as a
// bitset (for dedup, domination and greedy gains) and as a position list
// (for the branch-and-bound's covered counts), plus the index the caller
// knows it by.
type candSet struct {
	bits  bitset.Set
	elems []int // universe positions, ascending
	orig  int
}

// pollEvery is how many branch-and-bound nodes pass between the budget polls
// of a budgeted exact search. A node costs well under a microsecond, so a
// stopped budget cuts the search within a fraction of a millisecond.
const pollEvery = 256

// exactSearch is the Engine's branch and bound over restricted candidates,
// with its state kept between calls (each Scratch owns one), so a warmed
// search allocates nothing: the element-to-candidate index is one CSR array
// pair, the search is a method, and the dedup and greedy prime use the
// arrays below.
type exactSearch struct {
	cands   []candSet
	ne      int
	maxSet  int
	memOff  []int32 // element e lies in candidates mem[memOff[e]:memOff[e+1]]
	mem     []int32
	counts  []int32 // per element, how many chosen candidates hold it
	covered int     // elements with a positive count
	chosen  []int32
	best    []int // the best cover met, as orig indices
	bestLen int
	found   bool // best holds a cover the cap did not censor
	enough  int
	b       *budget.B
	polls   int
	halt    bool // the budget cut the search, or a first fit was found
	cut     bool
	keys    []uint64 // dedup hash per candidate
	used    []bool   // the greedy prime's picks
}

// run searches for a minimum cover of a universe of ne elements by cands,
// which must be non-empty restrictions to it, with elems listing each
// candidate's element positions in 0..ne-1; uncovered holds the universe
// as a bitset and is consumed. It dedups equal candidates (keeping the
// first), drops dominated (strict-subset) candidates, primes the bound with
// a greedy cover of the survivors (each round the first largest gain wins)
// and returns the chosen candidates' orig fields in pick order, or
// (nil, false) if some element is uncoverable, or (nil, true) when cap > 0
// and the optimum is >= cap. The returned slice is the search's own and is
// overwritten by its next run.
//
// A positive enough turns the search into a first fit: it returns the first
// cover of at most enough candidates it meets (the greedy prime, when that
// is narrow enough) instead of proving a minimum. b, when non-nil, is
// polled (Check) at the first node and then every pollEvery nodes; once it
// reports stopped the search unwinds and returns cut = true with the best
// cover it met, the prime at least (nil if a cap censored every cover it
// met). A nil b never cuts.
func (s *exactSearch) run(ne int, cands []candSet, uncovered bitset.Set, cap, enough int, b *budget.B) (result []int, capped, cut bool) {
	cands = s.dedup(cands)
	// Remove dominated candidates: a strict subset can always be replaced by
	// its superset without growing the cover. Equal sets were just deduped,
	// so only strictly smaller candidates need the subset test.
	kept := cands[:0]
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
	s.cands, s.ne = kept, ne
	if !s.index() {
		return nil, false, false // element not coverable
	}

	// Prime with a greedy cover of the surviving candidates (every element
	// is coverable here, so greedy cannot fail).
	s.prime(uncovered)
	s.bestLen, s.found = len(s.best), true
	if cap > 0 && s.bestLen > cap {
		s.bestLen, s.found = cap, false
		s.best = s.best[:0]
	}
	if s.found && s.bestLen <= enough {
		return s.best, false, false
	}

	s.counts = resize(s.counts, ne)
	s.covered = 0
	s.chosen = s.chosen[:0]
	s.enough, s.b, s.polls, s.halt, s.cut = enough, b, 0, false, false
	s.dfs()
	s.b = nil
	if s.cut {
		if !s.found {
			return nil, false, true
		}
		return s.best, false, true
	}
	if !s.found || (cap > 0 && s.bestLen >= cap) {
		// Coverable (the index check passed) but only at cap or above.
		return nil, true, false
	}
	return s.best, false, false
}

// dedup keeps the first of each group of equal candidates, in order,
// comparing a hash of the bits before the bits themselves.
func (s *exactSearch) dedup(cands []candSet) []candSet {
	s.keys = s.keys[:0]
	kept := cands[:0]
	for _, c := range cands {
		key := uint64(len(c.elems))
		for _, w := range c.bits {
			key = (key ^ w) * 0x100000001b3
		}
		dup := false
		for j, k := range s.keys {
			if k == key && slices.Equal(kept[j].bits, c.bits) {
				dup = true
				break
			}
		}
		if !dup {
			s.keys = append(s.keys, key)
			kept = append(kept, c)
		}
	}
	return kept
}

// index builds the element-to-candidate CSR index, each element's
// candidates ascending, and the largest candidate's size. It reports false
// when some element lies in no candidate.
func (s *exactSearch) index() bool {
	s.memOff = resize(s.memOff, s.ne+1)
	s.maxSet = 0
	for _, c := range s.cands {
		for _, e := range c.elems {
			s.memOff[e+1]++
		}
		s.maxSet = max(s.maxSet, len(c.elems))
	}
	for e := 0; e < s.ne; e++ {
		if s.memOff[e+1] == 0 {
			return false
		}
		s.memOff[e+1] += s.memOff[e]
	}
	s.mem = resize(s.mem, int(s.memOff[s.ne]))
	next := resize(s.counts, s.ne) // a fill cursor per element; cleared again by run
	copy(next, s.memOff[:s.ne])
	for i, c := range s.cands {
		for _, e := range c.elems {
			s.mem[next[e]] = int32(i)
			next[e]++
		}
	}
	s.counts = next
	return true
}

// prime sets best to a greedy cover of uncovered by the candidates, in
// pick order: each round takes the first candidate of largest gain.
func (s *exactSearch) prime(uncovered bitset.Set) {
	s.used = resize(s.used, len(s.cands))
	s.best = s.best[:0]
	for uncovered.Any() {
		best, bestGain := -1, 0
		for i := range s.cands {
			if s.used[i] {
				continue
			}
			if gain := s.cands[i].bits.AndCount(uncovered); gain > bestGain {
				best, bestGain = i, gain
			}
		}
		s.used[best] = true
		s.best = append(s.best, s.cands[best].orig)
		uncovered.AndNot(s.cands[best].bits)
	}
}

func (s *exactSearch) add(i int32) {
	for _, e := range s.cands[i].elems {
		if s.counts[e] == 0 {
			s.covered++
		}
		s.counts[e]++
	}
	s.chosen = append(s.chosen, i)
}

func (s *exactSearch) undo(i int32) {
	for _, e := range s.cands[i].elems {
		s.counts[e]--
		if s.counts[e] == 0 {
			s.covered--
		}
	}
	s.chosen = s.chosen[:len(s.chosen)-1]
}

func (s *exactSearch) dfs() {
	if s.b != nil {
		if s.polls%pollEvery == 0 && !s.b.Check() {
			s.cut, s.halt = true, true
		}
		s.polls++
	}
	if s.halt {
		return
	}
	if s.covered == s.ne {
		if len(s.chosen) < s.bestLen {
			s.bestLen, s.found = len(s.chosen), true
			s.best = s.best[:0]
			for _, ci := range s.chosen {
				s.best = append(s.best, s.cands[ci].orig)
			}
			s.halt = s.bestLen <= s.enough
		}
		return
	}
	remaining := s.ne - s.covered
	if len(s.chosen)+(remaining+s.maxSet-1)/s.maxSet >= s.bestLen {
		return
	}
	// Branch on the uncovered element with fewest candidates.
	branch, branchDeg := -1, int32(1<<30)
	for e := 0; e < s.ne; e++ {
		if s.counts[e] > 0 {
			continue
		}
		if d := s.memOff[e+1] - s.memOff[e]; d < branchDeg {
			branch, branchDeg = e, d
		}
	}
	for _, si := range s.mem[s.memOff[branch]:s.memOff[branch+1]] {
		s.add(si)
		s.dfs()
		s.undo(si)
		if s.halt {
			return
		}
	}
}

// resize returns buf with length n and every element zero, reusing its
// array when it is large enough.
func resize[T int32 | bool](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// KSetCoverLowerBound returns the trivial k-set-cover lower bound: covering
// q elements with sets of size at most k needs at least ceil(q/k) sets
// (thesis §8.1.1). It returns 0 for q <= 0 and panics for k < 1.
func KSetCoverLowerBound(q, k int) int {
	if k < 1 {
		panic("setcover: k must be positive")
	}
	if q <= 0 {
		return 0
	}
	return (q + k - 1) / k
}

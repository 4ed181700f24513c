package setcover

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"hypertree/internal/bitset"
	"hypertree/internal/budget"
	"hypertree/internal/budget/faultinject"
	"hypertree/internal/hypergraph"
)

// refExact restricts the hyperedges incident to bag to the bag, as the
// engine does, and runs the reference exactCore on them.
func refExact(e *Engine, bag []int, cap, enough int, b *budget.B) ([]int, bool, bool) {
	universe := bitset.New(e.nv)
	for _, v := range bag {
		universe.Add(v)
	}
	elems := universe.AppendTo(nil)
	pos := make(map[int]int, len(elems))
	for i, v := range elems {
		pos[v] = i
	}
	idx, _ := incidentSets(e.h, bag)
	cands := make([]candSet, 0, len(idx))
	for _, ei := range idx {
		bits := bitset.New(e.nv)
		bits.CopyFrom(e.edgeBits[ei])
		bits.And(universe)
		var ps []int
		for v := bits.NextSetBit(0); v >= 0; v = bits.NextSetBit(v + 1) {
			ps = append(ps, pos[v])
		}
		cands = append(cands, candSet{bits: bits, elems: ps, orig: ei})
	}
	return exactCore(universe, len(elems), cands, cap, enough, b)
}

// kernelRun runs the engine's exact search on bag and copies the result
// out of the scratch.
func kernelRun(e *Engine, sc *Scratch, bag []int, cap, enough int, b *budget.B) ([]int, bool, bool) {
	e.loadBag(sc, bag)
	chosen, capped, cut := e.exactUncached(sc, cap, enough, b)
	return slices.Clone(chosen), capped, cut
}

// wideBag draws a bag of 1 to 24 distinct vertices of 0..n-1.
func wideBag(rng *rand.Rand, n int) []int {
	return rng.Perm(n)[:1+rng.Intn(min(n, 24))]
}

// TestExactSearchMatchesReference: on random hypergraphs, bags, caps and
// enough values, the Scratch-held search returns the reference exactCore's
// chosen edges, in the same order, with the same capped and cut flags. A
// stopped budget cuts both at their first poll; the search then hands back
// the reference's greedy prime where the reference hands back nothing (or
// nothing too, when a cap censors the prime).
func TestExactSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	stopped := budget.New(context.Background(), budget.Limits{})
	stopped.Stop(budget.StopDeadline)
	cuts := 0
	for trial := 0; trial < 300; trial++ {
		n := 8 + rng.Intn(40)
		h := randomHypergraph(rng, n, 4+rng.Intn(3*n), 2+rng.Intn(4))
		eng := NewEngine(h, 0)
		sc := eng.NewScratch()
		for q := 0; q < 8; q++ {
			bag := wideBag(rng, n)
			cap, enough := 0, 0
			if rng.Intn(2) == 0 {
				cap = 1 + rng.Intn(8)
			}
			if rng.Intn(3) == 0 {
				enough = 1 + rng.Intn(6)
			}
			got, gotCapped, gotCut := kernelRun(eng, sc, bag, cap, enough, nil)
			want, wantCapped, wantCut := refExact(eng, bag, cap, enough, nil)
			if !slices.Equal(got, want) || (got == nil) != (want == nil) || gotCapped != wantCapped || gotCut != wantCut {
				t.Fatalf("trial %d bag %v cap %d enough %d: search = %v (capped %v cut %v), reference = %v (capped %v cut %v)",
					trial, bag, cap, enough, got, gotCapped, gotCut, want, wantCapped, wantCut)
			}

			got, gotCapped, gotCut = kernelRun(eng, sc, bag, cap, enough, stopped)
			want, wantCapped, wantCut = refExact(eng, bag, cap, enough, stopped)
			if gotCapped != wantCapped || gotCut != wantCut {
				t.Fatalf("trial %d bag %v cap %d enough %d, stopped: search capped %v cut %v, reference capped %v cut %v",
					trial, bag, cap, enough, gotCapped, gotCut, wantCapped, wantCut)
			}
			if !gotCut {
				if !slices.Equal(got, want) || (got == nil) != (want == nil) {
					t.Fatalf("trial %d bag %v, stopped but not cut: search = %v, reference = %v", trial, bag, got, want)
				}
				continue
			}
			cuts++
			prime, _, _ := refExact(eng, bag, 0, len(bag), nil)
			if cap > 0 && len(prime) > cap {
				prime = nil
			}
			if !slices.Equal(got, prime) || (got == nil) != (prime == nil) {
				t.Fatalf("trial %d bag %v cap %d: cut search handed back %v, want the prime %v", trial, bag, cap, got, prime)
			}
		}
	}
	if cuts == 0 {
		t.Fatal("no query reached the search under the stopped budget; the cut branch checked nothing")
	}
}

// TestExactSearchCutMidway cuts searches after their first budget poll,
// 256 nodes in: both implementations stop at the same node, and the cut
// search hands back a valid cover of the bag no wider than the
// reference's greedy prime.
func TestExactSearchCutMidway(t *testing.T) {
	defer faultinject.Reset()
	rng := rand.New(rand.NewSource(32))
	// cutAt runs search under a fresh budget that its second poll stops.
	cutAt := func(search func(b *budget.B) ([]int, bool, bool)) ([]int, bool, bool) {
		b := budget.New(context.Background(), budget.Limits{})
		faultinject.Arm(faultinject.SiteCheckpoint, 2, func() { b.Stop(budget.StopDeadline) })
		defer faultinject.Reset()
		return search(b)
	}
	cuts := 0
	for trial := 0; trial < 200; trial++ {
		n := 30 + rng.Intn(20)
		h := randomHypergraph(rng, n, 2*n+rng.Intn(2*n), 3)
		eng := NewEngine(h, 0)
		sc := eng.NewScratch()
		bag := rng.Perm(n)[:20+rng.Intn(10)]
		got, gotCapped, gotCut := cutAt(func(b *budget.B) ([]int, bool, bool) { return kernelRun(eng, sc, bag, 0, 0, b) })
		_, wantCapped, wantCut := cutAt(func(b *budget.B) ([]int, bool, bool) { return refExact(eng, bag, 0, 0, b) })
		if gotCapped != wantCapped || gotCut != wantCut {
			t.Fatalf("trial %d: search capped %v cut %v, reference capped %v cut %v", trial, gotCapped, gotCut, wantCapped, wantCut)
		}
		if !gotCut {
			continue
		}
		cuts++
		prime, _, _ := refExact(eng, bag, 0, len(bag), nil)
		if got == nil || !Covers(bag, h.Edges(), got) || len(got) > len(prime) {
			t.Fatalf("trial %d: cut search handed back %v for bag %v, want a cover no wider than the prime %v", trial, got, bag, prime)
		}
	}
	if cuts == 0 {
		t.Fatal("no search ran past its first poll; raise the bag sizes")
	}
	t.Logf("%d of 200 searches cut after 256 nodes", cuts)
}

// minDegreeBags returns the elimination bags of h's primal graph under the
// min-degree ordering (ties to the lower index): each vertex with its live
// neighbours when it is eliminated.
func minDegreeBags(h *hypergraph.Hypergraph) [][]int {
	n := h.N()
	adj := make([]map[int]bool, n)
	for v := range adj {
		adj[v] = map[int]bool{}
	}
	for _, e := range h.Edges() {
		for _, u := range e {
			for _, v := range e {
				if u != v {
					adj[u][v] = true
				}
			}
		}
	}
	gone := make([]bool, n)
	var bags [][]int
	for range n {
		v := -1
		for u := 0; u < n; u++ {
			if !gone[u] && (v < 0 || len(adj[u]) < len(adj[v])) {
				v = u
			}
		}
		bag := []int{v}
		for u := range adj[v] {
			bag = append(bag, u)
			delete(adj[u], v)
			for w := range adj[v] {
				if w != u {
					adj[u][w] = true
				}
			}
		}
		slices.Sort(bag)
		bags = append(bags, bag)
		gone[v] = true
	}
	return bags
}

// TestExactCoverAllocs is the allocation gate on the cover kernel: on the
// elimination bags of 60-signal circuits, with memoization off and the
// Scratch warmed by one pass, ExactSizeCapped allocates nothing and
// ExactCover and CoverWithin allocate only the cover they return.
func TestExactCoverAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	for seed := int64(1); seed <= 4; seed++ {
		h := hypergraph.RandomCircuit(60, 62, seed)
		bags := minDegreeBags(h)
		eng := NewEngine(h, 0)
		sc := eng.NewScratch()
		within := make([]int, len(bags))
		for i, bag := range bags {
			within[i] = len(eng.GreedyCover(sc, bag, nil))
		}
		for _, q := range []struct {
			name string
			max  int // allocations allowed per call
			call func(i int)
		}{
			{"ExactSizeCapped", 0, func(i int) { eng.ExactSizeCapped(sc, bags[i], len(bags[i])+1, nil) }},
			{"ExactCover", 1, func(i int) { eng.ExactCover(sc, bags[i], nil) }},
			{"CoverWithin", 1, func(i int) { eng.CoverWithin(sc, bags[i], within[i]) }},
		} {
			n := testing.AllocsPerRun(5, func() {
				for i := range bags {
					q.call(i)
				}
			})
			if n > float64(q.max*len(bags)) {
				t.Errorf("circuit %d: %s allocates %.0f times over %d bags, want at most %d per call",
					seed, q.name, n, len(bags), q.max)
			}
		}
	}
}

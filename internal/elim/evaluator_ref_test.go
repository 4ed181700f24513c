package elim

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"hypertree/internal/elimgraph"
	"hypertree/internal/hypergraph"
	"hypertree/internal/setcover"
)

// refGHWWidth is the pre-engine evaluator kept as ground truth: it walks
// the elimination cliques like GHWEvaluator.Width and covers every bag with
// the original map-based greedy (or, in exact mode, a brute-force minimum
// cover) over the bag's incident hyperedges, sorted ascending so that the
// nil-rng tie-breaking is the engine's canonical one.
func refGHWWidth(h *hypergraph.Hypergraph, order []int, exact bool) int {
	e := elimgraph.FromHypergraph(h)
	defer e.Reset()
	width := 0
	var bag []int
	for _, v := range order {
		if width >= e.Live() {
			break
		}
		bag = append(e.Neighbors(v, bag[:0]), v)
		k := refCoverSize(h, bag, exact)
		if k < 0 {
			return -1
		}
		if k > width {
			width = k
		}
		e.Eliminate(v)
	}
	return width
}

func refCoverSize(h *hypergraph.Hypergraph, bag []int, exact bool) int {
	seen := make(map[int]bool)
	var cand []int
	for _, v := range bag {
		for _, ei := range h.IncidentEdges(v) {
			if !seen[ei] {
				seen[ei] = true
				cand = append(cand, ei)
			}
		}
	}
	sort.Ints(cand)
	sets := make([][]int, len(cand))
	for i, ei := range cand {
		sets[i] = h.Edge(ei)
	}
	if exact {
		return bruteCoverSize(bag, sets)
	}
	// Map-based greedy, duplicated from the original coverSize path.
	uncovered := make(map[int]struct{}, len(bag))
	for _, v := range bag {
		uncovered[v] = struct{}{}
	}
	used := make([]bool, len(sets))
	size := 0
	for len(uncovered) > 0 {
		best, bestGain := -1, 0
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
			if gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			return -1
		}
		used[best] = true
		size++
		for _, v := range sets[best] {
			delete(uncovered, v)
		}
	}
	return size
}

// bruteCoverSize is the minimum number of sets covering bag, or -1 when
// bag is uncoverable: iterative deepening over every choice of a set
// containing the lowest uncovered element (some such set is in every
// cover), on the sets restricted to the bag. Test bags have at most 64
// vertices.
func bruteCoverSize(bag []int, sets [][]int) int {
	pos := make(map[int]uint, len(bag))
	for _, v := range bag {
		if _, dup := pos[v]; !dup {
			pos[v] = uint(len(pos))
		}
	}
	full := uint64(1)<<len(pos) - 1
	var masks []uint64
	for _, s := range sets {
		var m uint64
		for _, v := range s {
			if p, ok := pos[v]; ok {
				m |= 1 << p
			}
		}
		masks = append(masks, m)
	}
	var within func(covered uint64, k int) bool
	within = func(covered uint64, k int) bool {
		if covered == full {
			return true
		}
		if k == 0 {
			return false
		}
		low := (full &^ covered) & -(full &^ covered)
		for _, m := range masks {
			if m&low != 0 && within(covered|m, k-1) {
				return true
			}
		}
		return false
	}
	for k := 0; k <= len(pos); k++ {
		if within(0, k) {
			return k
		}
	}
	return -1
}

func randomTestHypergraph(rng *rand.Rand, n, m, maxEdge int) *hypergraph.Hypergraph {
	h := hypergraph.NewHypergraph(n)
	for i := 0; i < m; i++ {
		k := 1 + rng.Intn(maxEdge)
		if k > n {
			k = n
		}
		seen := map[int]bool{}
		var e []int
		for len(e) < k {
			v := rng.Intn(n)
			if !seen[v] {
				seen[v] = true
				e = append(e, v)
			}
		}
		h.AddEdge(e...)
	}
	return h
}

// The engine-backed evaluator must agree with the reference evaluator on
// random hypergraphs and orderings, in both cover modes — and stay in
// agreement on re-evaluation, when every bag comes out of the memo cache.
func TestGHWEvaluatorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(10)
		h := randomTestHypergraph(rng, n, 2+rng.Intn(3*n), 1+rng.Intn(4))
		greedy := NewGHWEvaluator(h, false, nil)
		exact := NewGHWEvaluator(h, true, nil)
		for q := 0; q < 6; q++ {
			order := rng.Perm(n)
			wantG := refGHWWidth(h, order, false)
			wantE := refGHWWidth(h, order, true)
			for pass := 0; pass < 2; pass++ { // second pass hits the cache
				if got := greedy.Width(order); got != wantG {
					t.Fatalf("greedy width pass %d = %d, want %d (order %v)", pass, got, wantG, order)
				}
				if got := exact.Width(order); got != wantE {
					t.Fatalf("exact width pass %d = %d, want %d (order %v)", pass, got, wantE, order)
				}
			}
			if wantE > wantG || (wantE == -1) != (wantG == -1) {
				t.Fatalf("exact %d vs greedy %d inconsistent", wantE, wantG)
			}
		}
		if st := greedy.CoverCacheStats(); st.Hits == 0 {
			t.Fatal("re-evaluation produced no cache hits")
		}
	}
	// The evaluator benchmark's width cross-check: on the instances its
	// BENCH_ghw.json rows time (bench.DefaultBenchInstances, built here since
	// bench imports this package), the engine's width of the benchmark's
	// first ordering must be the reference evaluator's.
	for _, h := range []*hypergraph.Hypergraph{hypergraph.Grid2D(10), hypergraph.Grid2D(20), hypergraph.Adder(25), hypergraph.Bridge(15)} {
		order := rand.New(rand.NewSource(42)).Perm(h.N())
		if got, want := NewGHWEvaluator(h, false, nil).Width(order), refGHWWidth(h, order, false); got != want {
			t.Fatalf("%v: engine width %d != reference width %d on the benchmark's first ordering", h, got, want)
		}
	}
}

// Evaluators sharing one engine must agree with a serial evaluator when
// run concurrently — the SAIGA-islands sharing pattern. Run under -race.
func TestSharedEngineEvaluatorsConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	h := randomTestHypergraph(rng, 24, 40, 4)
	orders := make([][]int, 32)
	want := make([]int, len(orders))
	serial := NewGHWEvaluator(h, false, nil)
	for i := range orders {
		orders[i] = rng.Perm(24)
		want[i] = serial.Width(orders[i])
	}
	eng := setcover.NewEngine(h, setcover.DefaultCacheCapacity)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev := NewGHWEvaluatorWithEngine(eng, false, nil)
			for rep := 0; rep < 10; rep++ {
				for i, order := range orders {
					if got := ev.Width(order); got != want[i] {
						t.Errorf("concurrent width(order %d) = %d, want %d", i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if st := eng.CacheStats(); st.Hits == 0 {
		t.Fatal("shared engine saw no cache hits")
	}
}

// The headline acceptance benchmark pair: GHWEvaluator.Width on a grid
// hypergraph through the engine versus through the pre-engine reference
// path. The issue requires the engine to be at least 2x faster.
func BenchmarkGHWWidthGridEngine(b *testing.B) {
	h := hypergraph.Grid2D(14)
	rng := rand.New(rand.NewSource(2))
	orders := benchOrders(h.N(), rng, 8)
	ev := NewGHWEvaluator(h, false, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Width(orders[i%len(orders)])
	}
}

func BenchmarkGHWWidthGridEngineColdCache(b *testing.B) {
	h := hypergraph.Grid2D(14)
	rng := rand.New(rand.NewSource(2))
	orders := benchOrders(h.N(), rng, 8)
	eng := setcover.NewEngine(h, 0) // memoization off: pure bitset speed
	ev := NewGHWEvaluatorWithEngine(eng, false, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Width(orders[i%len(orders)])
	}
}

func BenchmarkGHWWidthGridReference(b *testing.B) {
	h := hypergraph.Grid2D(14)
	rng := rand.New(rand.NewSource(2))
	orders := benchOrders(h.N(), rng, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refGHWWidth(h, orders[i%len(orders)], false)
	}
}

func BenchmarkGHWWidthQueenEngine(b *testing.B) {
	h := hypergraph.FromGraph(hypergraph.Queen(8))
	rng := rand.New(rand.NewSource(3))
	orders := benchOrders(h.N(), rng, 8)
	ev := NewGHWEvaluator(h, false, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Width(orders[i%len(orders)])
	}
}

func BenchmarkGHWWidthQueenReference(b *testing.B) {
	h := hypergraph.FromGraph(hypergraph.Queen(8))
	rng := rand.New(rand.NewSource(3))
	orders := benchOrders(h.N(), rng, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refGHWWidth(h, orders[i%len(orders)], false)
	}
}

func benchOrders(n int, rng *rand.Rand, k int) [][]int {
	orders := make([][]int, k)
	for i := range orders {
		orders[i] = rng.Perm(n)
	}
	return orders
}

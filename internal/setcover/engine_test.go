package setcover

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"hypertree/internal/budget"
	"hypertree/internal/hypergraph"
)

// randomHypergraph builds a connected-ish random hypergraph for engine tests.
func randomHypergraph(rng *rand.Rand, n, m, maxEdge int) *hypergraph.Hypergraph {
	edges := make([][]int, 0, m)
	for i := 0; i < m; i++ {
		k := 1 + rng.Intn(maxEdge)
		seen := map[int]bool{}
		var e []int
		for len(e) < k {
			v := rng.Intn(n)
			if !seen[v] {
				seen[v] = true
				e = append(e, v)
			}
		}
		sort.Ints(e)
		edges = append(edges, e)
	}
	h := hypergraph.NewHypergraph(n)
	for _, e := range edges {
		h.AddEdge(e...)
	}
	return h
}

func randomBag(rng *rand.Rand, n int) []int {
	k := 1 + rng.Intn(8)
	if k > n {
		k = n
	}
	seen := map[int]bool{}
	var bag []int
	for len(bag) < k {
		v := rng.Intn(n)
		if !seen[v] {
			seen[v] = true
			bag = append(bag, v)
		}
	}
	return bag
}

// incidentSets gathers the edges incident to the bag as plain slices, the
// input of the slice-based references (greedyRef, exactBBRef).
func incidentSets(h *hypergraph.Hypergraph, bag []int) (idx []int, sets [][]int) {
	seen := make([]bool, h.M())
	for _, v := range bag {
		for _, ei := range h.IncidentEdges(v) {
			if !seen[ei] {
				seen[ei] = true
				idx = append(idx, ei)
			}
		}
	}
	sort.Ints(idx)
	for _, ei := range idx {
		sets = append(sets, h.Edge(ei))
	}
	return idx, sets
}

// The engine's cached sizes must match the uncached slice-based references
// on random bags.
func TestEngineMatchesSliceAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 6 + rng.Intn(20)
		h := randomHypergraph(rng, n, 3+rng.Intn(12), 1+rng.Intn(5))
		eng := NewEngine(h, -1)
		sc := eng.NewScratch()
		for q := 0; q < 30; q++ {
			bag := randomBag(rng, n)
			_, sets := incidentSets(h, bag)
			wantG := -1
			if c := greedyRef(bag, sets, nil); c != nil {
				wantG = len(c)
			}
			if gotG := eng.GreedySize(sc, bag, nil); gotG != wantG {
				t.Fatalf("GreedySize(%v) = %d, want %d", bag, gotG, wantG)
			}
			wantE := refExactSize(bag, sets, 0)
			cap := 1 + rng.Intn(4)
			wantC := refExactSize(bag, sets, cap)
			if gotC := eng.ExactSizeCapped(sc, bag, cap, nil); gotC != wantC {
				t.Fatalf("ExactSizeCapped(%v, %d) = %d, want %d", bag, cap, gotC, wantC)
			}
			// A larger cap than any minimum gives the true exact size.
			if gotE := eng.ExactSizeCapped(sc, bag, len(bag)+1, nil); gotE != wantE && !(wantE == len(bag)+1) {
				t.Fatalf("ExactSizeCapped(%v, uncapped) = %d, want %d", bag, gotE, wantE)
			}
		}
	}
}

// GreedyCover and ExactCover must return valid covers of the right size.
func TestEngineCoverValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 30; trial++ {
		n := 6 + rng.Intn(16)
		h := randomHypergraph(rng, n, 3+rng.Intn(10), 1+rng.Intn(5))
		eng := NewEngine(h, -1)
		sc := eng.NewScratch()
		for q := 0; q < 20; q++ {
			bag := randomBag(rng, n)
			all := h.Edges()
			g := eng.GreedyCover(sc, bag, nil)
			if g == nil {
				if eng.GreedySize(sc, bag, nil) != -1 {
					t.Fatalf("GreedyCover nil but GreedySize coverable for %v", bag)
				}
				continue
			}
			if !Covers(bag, all, g) {
				t.Fatalf("GreedyCover(%v) = %v does not cover", bag, g)
			}
			if len(g) != eng.GreedySize(sc, bag, nil) {
				t.Fatalf("GreedyCover size %d != GreedySize %d", len(g), eng.GreedySize(sc, bag, nil))
			}
			ex, _ := eng.ExactCover(sc, bag, nil)
			if !Covers(bag, all, ex) {
				t.Fatalf("ExactCover(%v) = %v does not cover", bag, ex)
			}
			if want := eng.ExactSizeCapped(sc, bag, len(bag)+1, nil); len(ex) != want && want != len(bag)+1 {
				t.Fatalf("ExactCover size %d != exact size %d", len(ex), want)
			}
		}
	}
}

// The engine's λ-sets against the slice-based references: GreedyCover is
// the reference greedy's cover edge for edge, replaying its tie-breaking on
// the same rng stream; ExactCover is a minimum cover, with or without a live
// budget (compared by size, coverability and validity: the two branch and
// bounds break ties differently). CoverWithin finds a cover within any k at
// or above the minimum, and none below it.
func TestEngineCoversMatchSliceAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	live := budget.New(context.Background(), budget.Limits{})
	for trial := 0; trial < 40; trial++ {
		n := 6 + rng.Intn(20)
		h := randomHypergraph(rng, n, 3+rng.Intn(12), 1+rng.Intn(5))
		eng := NewEngine(h, -1)
		sc := eng.NewScratch()
		for q := 0; q < 30; q++ {
			bag := randomBag(rng, n)
			idx, sets := incidentSets(h, bag)
			seed := rng.Int63()
			want := greedyRef(bag, sets, rand.New(rand.NewSource(seed)))
			got := eng.GreedyCover(sc, bag, rand.New(rand.NewSource(seed)))
			if !equalIntSlices(got, mapIdx(idx, want)) {
				t.Fatalf("GreedyCover(%v) = %v, want %v", bag, got, mapIdx(idx, want))
			}
			want, _ = exactBBRef(bag, sets, 0)
			for _, b := range []*budget.B{nil, live} {
				got, cut := eng.ExactCover(sc, bag, b)
				if cut || (got == nil) != (want == nil) || len(got) != len(want) ||
					(got != nil && (!Covers(bag, h.Edges(), got) || !sort.IntsAreSorted(got))) {
					t.Fatalf("ExactCover(%v, budget %v) = %v (cut %v), want a sorted minimum cover like %v", bag, b != nil, got, cut, mapIdx(idx, want))
				}
			}
			if want == nil {
				continue
			}
			for k := len(want); k <= len(bag); k++ {
				c := eng.CoverWithin(sc, bag, k)
				if c == nil || len(c) > k || !Covers(bag, h.Edges(), c) || !sort.IntsAreSorted(c) {
					t.Fatalf("CoverWithin(%v, %d) = %v, want a sorted cover of at most %d edges", bag, k, c, k)
				}
			}
			if c := eng.CoverWithin(sc, bag, len(want)-1); c != nil {
				t.Fatalf("CoverWithin(%v, %d) = %v below the minimum %d", bag, len(want)-1, c, len(want))
			}
		}
	}
}

// mapIdx maps incidentSets indices back to hyperedge ids (nil stays nil).
func mapIdx(idx, chosen []int) []int {
	if chosen == nil {
		return nil
	}
	out := make([]int, len(chosen))
	for i, c := range chosen {
		out[i] = idx[c]
	}
	sort.Ints(out)
	return out
}

// A stopped budget cuts ExactCover at its first poll, whether the stop came
// from the deadline or a cancelled context: cut is reported, and the cover
// is the search's greedy prime, the best it met (on K12 the prime, six
// disjoint edges, is also minimum). A cut ExactSizeCapped prices the bag at
// its cap without memoizing that (it is not a bound), so a later unbudgeted
// query still finds the minimum.
func TestExactCoverBudgetCut(t *testing.T) {
	h := hypergraph.CliqueHypergraph(12)
	eng := NewEngine(h, -1)
	sc := eng.NewScratch()
	bag := make([]int, 12)
	for i := range bag {
		bag[i] = i
	}
	stopped := budget.New(context.Background(), budget.Limits{})
	stopped.Stop(budget.StopDeadline)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	canceled := budget.New(ctx, budget.Limits{})
	prime, _, _ := refExact(eng, bag, 0, len(bag), nil)
	slices.Sort(prime)
	for _, b := range []*budget.B{stopped, canceled} {
		if got, cut := eng.ExactCover(sc, bag, b); !cut || len(got) != 6 || !slices.Equal(got, prime) {
			t.Fatalf("ExactCover under a stopped budget = %v (cut %v), want a cut handing back the prime %v", got, cut, prime)
		}
	}
	if canceled.Reason() != budget.StopCanceled {
		t.Fatalf("the poll did not latch the cancel: reason %q", canceled.Reason())
	}
	if got, cut := eng.ExactCover(sc, bag, nil); cut || len(got) != 6 {
		t.Fatalf("unbudgeted ExactCover on K12 = %v (cut %v), want 6 edges", got, cut)
	}
	if got := eng.ExactSizeCapped(sc, bag, 9, stopped); got != 9 {
		t.Fatalf("cut ExactSizeCapped = %d, want the cap 9", got)
	}
	if got := eng.ExactSizeCapped(sc, bag, 9, nil); got != 6 {
		t.Fatalf("ExactSizeCapped after a cut = %d, want 6: the cut was memoized", got)
	}
}

// Cache behavior: second identical query hits; greedy and exact results
// coexist in one entry; the capped lower bound is reused only when the cap
// allows; eviction keeps the cache at capacity.
func TestEngineCache(t *testing.T) {
	h := hypergraph.NewHypergraph(6)
	for _, e := range [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 5}} {
		h.AddEdge(e...)
	}
	eng := NewEngine(h, 8)
	sc := eng.NewScratch()
	bag := []int{0, 1, 2, 3}

	if got := eng.GreedySize(sc, bag, nil); got <= 0 {
		t.Fatalf("greedy size = %d", got)
	}
	s := eng.CacheStats()
	if s.Hits != 0 || s.Misses != 1 || s.Size != 1 {
		t.Fatalf("after first query: %+v", s)
	}
	eng.GreedySize(sc, bag, nil)
	if s = eng.CacheStats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("after repeat query: %+v", s)
	}
	// Exact on the same bag: same entry, separate field → one more miss.
	exact := eng.ExactSizeCapped(sc, bag, 10, nil)
	if s = eng.CacheStats(); s.Misses != 2 || s.Size != 1 {
		t.Fatalf("after exact query: %+v", s)
	}
	if got := eng.ExactSizeCapped(sc, bag, 10, nil); got != exact {
		t.Fatalf("cached exact = %d, want %d", got, exact)
	}
	if s = eng.CacheStats(); s.Hits != 2 {
		t.Fatalf("exact repeat should hit: %+v", s)
	}
	// A tighter cap than the stored exact value must come back censored.
	if got := eng.ExactSizeCapped(sc, bag, 1, nil); got != 1 {
		t.Fatalf("capped-below-exact = %d, want 1", got)
	}

	// Capped lower bounds: query a bag with cap 1 (minimum is 2), then ask
	// again with cap 1 (hit) and with a larger cap (miss, recompute).
	bag2 := []int{0, 2, 4}
	if got := eng.ExactSizeCapped(sc, bag2, 1, nil); got != 1 {
		t.Fatalf("cap-censored = %d, want 1", got)
	}
	pre := eng.CacheStats()
	if got := eng.ExactSizeCapped(sc, bag2, 1, nil); got != 1 {
		t.Fatalf("cap-censored repeat = %d", got)
	}
	if s = eng.CacheStats(); s.Hits != pre.Hits+1 {
		t.Fatalf("lower-bound reuse should hit: %+v", s)
	}
	if got := eng.ExactSizeCapped(sc, bag2, 5, nil); got < 2 {
		t.Fatalf("true exact = %d, want >= 2", got)
	}
	if got := eng.ExactSizeCapped(sc, bag2, 5, nil); got < 2 {
		t.Fatalf("cached true exact = %d", got)
	}

	// Eviction: flood with distinct bags; size stays at capacity.
	for v := 0; v < 6; v++ {
		for w := v + 1; w < 6; w++ {
			eng.GreedySize(sc, []int{v, w}, nil)
		}
	}
	if s = eng.CacheStats(); s.Size > 8 {
		t.Fatalf("cache exceeded capacity: %+v", s)
	}
	// Disabled cache still answers correctly.
	off := NewEngine(h, 0)
	sco := off.NewScratch()
	if got := off.GreedySize(sco, bag, nil); got != eng.GreedySize(sc, bag, nil) {
		t.Fatalf("cache-off greedy = %d", got)
	}
	if s = off.CacheStats(); s.Hits != 0 || s.Misses != 0 || s.Size != 0 {
		t.Fatalf("cache-off stats: %+v", s)
	}
}

// engineSink keeps the engines TestNewEngineSizesCacheLazily builds alive.
var engineSink *Engine

// A fresh engine must not pay for its cache's full capacity up front: the
// greedy /query decomposition builds one engine per request, and a cache
// presized for DefaultCacheCapacity entries cost 2.3 MB per engine.
func TestNewEngineSizesCacheLazily(t *testing.T) {
	h := hypergraph.Adder(6)
	const runs = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		engineSink = NewEngine(h, DefaultCacheCapacity)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
		t.Fatalf("NewEngine(Adder(6), DefaultCacheCapacity) allocates %d bytes, want < 64 KiB", per)
	}
}

// An uncoverable bag (isolated vertex) is remembered as such for both modes.
func TestEngineUncoverable(t *testing.T) {
	h := hypergraph.NewHypergraph(4)
	h.AddEdge(0, 1)
	eng := NewEngine(h, -1)
	sc := eng.NewScratch()
	bag := []int{0, 3} // vertex 3 is in no edge
	if got := eng.GreedySize(sc, bag, nil); got != -1 {
		t.Fatalf("greedy on uncoverable = %d", got)
	}
	if got := eng.ExactSizeCapped(sc, bag, 5, nil); got != -1 {
		t.Fatalf("exact on uncoverable = %d", got)
	}
	s := eng.CacheStats()
	if s.Hits != 1 {
		t.Fatalf("exact should reuse greedy's uncoverable verdict: %+v", s)
	}
	if ex, _ := eng.ExactCover(sc, bag, nil); eng.GreedyCover(sc, bag, nil) != nil || ex != nil {
		t.Fatal("covers of uncoverable bag should be nil")
	}
	if got := eng.GreedySize(sc, nil, nil); got != 0 {
		t.Fatalf("empty bag greedy = %d", got)
	}
	if got := eng.ExactSizeCapped(sc, nil, 3, nil); got != 0 {
		t.Fatalf("empty bag exact = %d", got)
	}
}

// The engine must be shareable across goroutines, each with its own Scratch.
func TestEngineConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	h := randomHypergraph(rng, 30, 25, 5)
	eng := NewEngine(h, 64) // small capacity to exercise eviction under load
	bags := make([][]int, 50)
	for i := range bags {
		bags[i] = randomBag(rng, 30)
	}
	// Ground truth computed serially first.
	want := make([]int, len(bags))
	scSerial := eng.NewScratch()
	for i, bag := range bags {
		want[i] = eng.GreedySize(scSerial, bag, nil)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			sc := eng.NewScratch()
			for rep := 0; rep < 40; rep++ {
				for i, bag := range bags {
					if got := eng.GreedySize(sc, bag, nil); got != want[i] {
						t.Errorf("concurrent GreedySize(%v) = %d, want %d", bag, got, want[i])
						return
					}
					if rep%3 == 0 {
						eng.ExactSizeCapped(sc, bag, 4, nil)
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

// Member views attribute hits/misses to the member that queried while the
// root keeps the global truth, and views share the root's memo cache.
func TestEngineMemberAttribution(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	h := randomHypergraph(rng, 24, 30, 4)
	root := NewEngine(h, -1)
	a, b := root.Member(), root.Member()
	if bb := b.Member(); bb.parent != root {
		t.Fatal("Member of a member must attach to the root")
	}

	bag := randomBag(rng, 24)
	sca, scb := a.NewScratch(), b.NewScratch()
	// First query through a misses; the identical query through b must hit
	// the shared cache — attributed to b.
	a.GreedySize(sca, bag, nil)
	b.GreedySize(scb, bag, nil)
	sa, sb := a.CacheStats(), b.CacheStats()
	if sa.Misses != 1 || sa.Hits != 0 {
		t.Fatalf("member a stats = %+v, want 1 miss", sa)
	}
	if sb.Hits != 1 || sb.Misses != 0 {
		t.Fatalf("member b stats = %+v, want 1 shared-cache hit", sb)
	}

	// Hammer concurrently; member counters must sum to the root's.
	var wg sync.WaitGroup
	for _, m := range []*Engine{a, b} {
		wg.Add(1)
		go func(m *Engine) {
			defer wg.Done()
			sc := m.NewScratch()
			r := rand.New(rand.NewSource(int64(len(m.edgeBits))))
			for i := 0; i < 400; i++ {
				bag := randomBag(r, 24)
				m.GreedySize(sc, bag, nil)
				m.ExactSizeCapped(sc, bag, 3, nil)
			}
		}(m)
	}
	wg.Wait()
	sa, sb = a.CacheStats(), b.CacheStats()
	sr := root.CacheStats()
	if sa.Hits+sb.Hits != sr.Hits || sa.Misses+sb.Misses != sr.Misses {
		t.Fatalf("member traffic (%d+%d hits, %d+%d misses) does not sum to root (%d hits, %d misses)",
			sa.Hits, sb.Hits, sa.Misses, sb.Misses, sr.Hits, sr.Misses)
	}
	if sr.Hits+sr.Misses == 0 {
		t.Fatal("no cache traffic recorded at all")
	}
	// Shared-cache metadata is visible through views.
	if sa.Size != sr.Size {
		t.Fatalf("view cache size %d != root %d", sa.Size, sr.Size)
	}
}

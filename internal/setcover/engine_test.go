package setcover

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

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

// incidentSets replicates what the evaluators used to do: gather the edges
// incident to the bag as plain slices for the public slice API.
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

// The engine's cached sizes must match the uncached slice API on random bags.
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
			wantG := GreedySize(bag, sets, nil)
			if gotG := eng.GreedySize(sc, bag, nil); gotG != wantG {
				t.Fatalf("GreedySize(%v) = %d, want %d", bag, gotG, wantG)
			}
			wantE := ExactSize(bag, sets)
			cap := 1 + rng.Intn(4)
			var wantC int
			if len(bag) == 0 {
				wantC = 0
			} else {
				wantC = ExactSizeCapped(bag, sets, cap)
			}
			if gotC := eng.ExactSizeCapped(sc, bag, cap); gotC != wantC {
				t.Fatalf("ExactSizeCapped(%v, %d) = %d, want %d", bag, cap, gotC, wantC)
			}
			// A larger cap than any minimum gives the true exact size.
			if gotE := eng.ExactSizeCapped(sc, bag, len(bag)+1); gotE != wantE && !(wantE == len(bag)+1) {
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
			g := eng.GreedyCover(bag, nil)
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
			ex := eng.ExactCover(bag)
			if !Covers(bag, all, ex) {
				t.Fatalf("ExactCover(%v) = %v does not cover", bag, ex)
			}
			if want := eng.ExactSizeCapped(sc, bag, len(bag)+1); len(ex) != want && want != len(bag)+1 {
				t.Fatalf("ExactCover size %d != exact size %d", len(ex), want)
			}
		}
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
	exact := eng.ExactSizeCapped(sc, bag, 10)
	if s = eng.CacheStats(); s.Misses != 2 || s.Size != 1 {
		t.Fatalf("after exact query: %+v", s)
	}
	if got := eng.ExactSizeCapped(sc, bag, 10); got != exact {
		t.Fatalf("cached exact = %d, want %d", got, exact)
	}
	if s = eng.CacheStats(); s.Hits != 2 {
		t.Fatalf("exact repeat should hit: %+v", s)
	}
	// A tighter cap than the stored exact value must come back censored.
	if got := eng.ExactSizeCapped(sc, bag, 1); got != 1 {
		t.Fatalf("capped-below-exact = %d, want 1", got)
	}

	// Capped lower bounds: query a bag with cap 1 (minimum is 2), then ask
	// again with cap 1 (hit) and with a larger cap (miss, recompute).
	bag2 := []int{0, 2, 4}
	if got := eng.ExactSizeCapped(sc, bag2, 1); got != 1 {
		t.Fatalf("cap-censored = %d, want 1", got)
	}
	pre := eng.CacheStats()
	if got := eng.ExactSizeCapped(sc, bag2, 1); got != 1 {
		t.Fatalf("cap-censored repeat = %d", got)
	}
	if s = eng.CacheStats(); s.Hits != pre.Hits+1 {
		t.Fatalf("lower-bound reuse should hit: %+v", s)
	}
	if got := eng.ExactSizeCapped(sc, bag2, 5); got < 2 {
		t.Fatalf("true exact = %d, want >= 2", got)
	}
	if got := eng.ExactSizeCapped(sc, bag2, 5); got < 2 {
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
	if got := eng.ExactSizeCapped(sc, bag, 5); got != -1 {
		t.Fatalf("exact on uncoverable = %d", got)
	}
	s := eng.CacheStats()
	if s.Hits != 1 {
		t.Fatalf("exact should reuse greedy's uncoverable verdict: %+v", s)
	}
	if eng.GreedyCover(bag, nil) != nil || eng.ExactCover(bag) != nil {
		t.Fatal("covers of uncoverable bag should be nil")
	}
	if got := eng.GreedySize(sc, nil, nil); got != 0 {
		t.Fatalf("empty bag greedy = %d", got)
	}
	if got := eng.ExactSizeCapped(sc, nil, 3); got != 0 {
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
						eng.ExactSizeCapped(sc, bag, 4)
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
				m.ExactSizeCapped(sc, bag, 3)
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

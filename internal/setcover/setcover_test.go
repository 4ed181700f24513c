package setcover

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hypertree/internal/hypergraph"
)

// Covers reports whether the union of sets[i] for i in chosen contains every
// element of universe.
func Covers(universe []int, sets [][]int, chosen []int) bool {
	have := make(map[int]struct{})
	for _, i := range chosen {
		if i < 0 || i >= len(sets) {
			return false
		}
		for _, v := range sets[i] {
			have[v] = struct{}{}
		}
	}
	for _, v := range universe {
		if _, ok := have[v]; !ok {
			return false
		}
	}
	return true
}

// coverEngine builds an Engine whose hyperedge i is sets[i] (every set must
// be non-empty), over enough vertices to hold every element of universe
// and sets, so the Engine's cover of universe names sets by their index.
func coverEngine(universe []int, sets [][]int) (*Engine, *Scratch) {
	n := 0
	for _, v := range universe {
		n = max(n, v+1)
	}
	for _, s := range sets {
		for _, v := range s {
			n = max(n, v+1)
		}
	}
	h := hypergraph.NewHypergraph(n)
	for _, s := range sets {
		h.AddEdge(s...)
	}
	eng := NewEngine(h, -1)
	return eng, eng.NewScratch()
}

func TestGreedyBasic(t *testing.T) {
	universe := []int{1, 2, 3, 4, 5}
	sets := [][]int{{1, 2, 3}, {2, 4}, {3, 4}, {4, 5}}
	eng, sc := coverEngine(universe, sets)
	c := eng.GreedyCover(sc, universe, nil)
	if c == nil || !Covers(universe, sets, c) {
		t.Fatalf("greedy cover %v does not cover", c)
	}
	if len(c) != 2 { // {1,2,3} + {4,5}
		t.Fatalf("greedy size = %d, want 2", len(c))
	}
}

func TestGreedyUncoverable(t *testing.T) {
	eng, sc := coverEngine([]int{1, 2}, [][]int{{1}})
	if eng.GreedyCover(sc, []int{1, 2}, nil) != nil {
		t.Fatal("expected nil for uncoverable universe")
	}
	if eng.GreedySize(sc, []int{1, 2}, nil) != -1 {
		t.Fatal("expected -1")
	}
}

func TestGreedyEmptyUniverse(t *testing.T) {
	eng, sc := coverEngine(nil, [][]int{{1}})
	c := eng.GreedyCover(sc, nil, nil)
	if c == nil || len(c) != 0 {
		t.Fatalf("empty universe should give empty cover, got %v", c)
	}
}

// The classic greedy-suboptimal instance: universe 1..6, sets {1,2,3,4},
// {1,2,5}, {3,4,6}, {5,6}. Greedy takes the big set then needs two more
// (3 sets); optimum is {1,2,5} + {3,4,6} (2 sets).
func TestExactBeatsGreedy(t *testing.T) {
	universe := []int{1, 2, 3, 4, 5, 6}
	sets := [][]int{{1, 2, 3, 4}, {1, 2, 5}, {3, 4, 6}, {5, 6}}
	eng, sc := coverEngine(universe, sets)
	g := eng.GreedyCover(sc, universe, nil)
	e, _ := eng.ExactCover(sc, universe, nil)
	if !Covers(universe, sets, e) {
		t.Fatalf("exact cover %v does not cover", e)
	}
	if len(e) != 2 {
		t.Fatalf("exact size = %d, want 2", len(e))
	}
	if len(g) < len(e) {
		t.Fatalf("greedy %d beat exact %d", len(g), len(e))
	}
}

func TestExactUncoverable(t *testing.T) {
	eng, sc := coverEngine([]int{1, 9}, [][]int{{1}, {2}})
	if e, _ := eng.ExactCover(sc, []int{1, 9}, nil); e != nil {
		t.Fatal("expected nil for uncoverable")
	}
	eng, sc = coverEngine([]int{9}, nil)
	if eng.ExactSizeCapped(sc, []int{9}, 0, nil) != -1 {
		t.Fatal("expected -1")
	}
}

func TestExactSingleSet(t *testing.T) {
	eng, sc := coverEngine([]int{3, 7}, [][]int{{3, 7, 9}})
	e, _ := eng.ExactCover(sc, []int{3, 7}, nil)
	if len(e) != 1 || e[0] != 0 {
		t.Fatalf("got %v", e)
	}
}

func TestExactDuplicateUniverseElements(t *testing.T) {
	eng, sc := coverEngine([]int{1, 2}, [][]int{{1, 2}})
	e, _ := eng.ExactCover(sc, []int{1, 1, 2, 2}, nil)
	if len(e) != 1 {
		t.Fatalf("got %v", e)
	}
}

func TestExactSizeCapped(t *testing.T) {
	universe := []int{1, 2, 3, 4, 5, 6}
	sets := [][]int{{1, 2, 3, 4}, {1, 2, 5}, {3, 4, 6}, {5, 6}} // optimum 2
	// A fresh engine per query, so no answer comes from the memo cache.
	capped := func(universe []int, cap int) int {
		eng, sc := coverEngine(universe, sets)
		return eng.ExactSizeCapped(sc, universe, cap, nil)
	}
	if got := capped(universe, 10); got != 2 {
		t.Fatalf("cap 10: got %d, want 2", got)
	}
	if got := capped(universe, 3); got != 2 {
		t.Fatalf("cap 3: got %d, want 2", got)
	}
	if got := capped(universe, 2); got != 2 {
		t.Fatalf("cap 2: got %d, want 2 (optimum == cap reports cap)", got)
	}
	if got := capped(universe, 1); got != 1 {
		t.Fatalf("cap 1: got %d, want 1 (capped)", got)
	}
	if got := capped([]int{9}, 3); got != -1 {
		t.Fatalf("uncoverable: got %d, want -1", got)
	}
	if got := capped(nil, 3); got != 0 {
		t.Fatalf("empty universe: got %d, want 0", got)
	}
}

// Property: the Engine's capped result equals min(exact, cap) on random
// instances, exact taken from the reference branch and bound.
func TestExactSizeCappedMatchesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nu := 1 + rng.Intn(7)
		universe := make([]int, nu)
		for i := range universe {
			universe[i] = i
		}
		ns := 1 + rng.Intn(7)
		sets := make([][]int, ns)
		for i := range sets {
			k := 1 + rng.Intn(nu)
			seen := map[int]struct{}{}
			for len(seen) < k {
				seen[rng.Intn(nu)] = struct{}{}
			}
			for v := range seen {
				sets[i] = append(sets[i], v)
			}
		}
		exact := refExactSize(universe, sets, 0)
		for cap := 1; cap <= nu+1; cap++ {
			eng, sc := coverEngine(universe, sets)
			got := eng.ExactSizeCapped(sc, universe, cap, nil)
			if exact < 0 {
				if got != -1 {
					return false
				}
				continue
			}
			want := exact
			if want > cap {
				want = cap
			}
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestKSetCoverLowerBound(t *testing.T) {
	for _, tc := range []struct{ q, k, want int }{
		{0, 3, 0},
		{-1, 3, 0},
		{1, 3, 1},
		{3, 3, 1},
		{4, 3, 2},
		{10, 3, 4},
		{10, 1, 10},
	} {
		if got := KSetCoverLowerBound(tc.q, tc.k); got != tc.want {
			t.Errorf("KSetCoverLowerBound(%d,%d) = %d, want %d", tc.q, tc.k, got, tc.want)
		}
	}
}

func TestKSetCoverLowerBoundPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k=0")
		}
	}()
	KSetCoverLowerBound(3, 0)
}

// TestCovers checks the cover checker the other tests rely on.
func TestCovers(t *testing.T) {
	sets := [][]int{{1, 2}, {3}}
	if !Covers([]int{1, 3}, sets, []int{0, 1}) {
		t.Fatal("should cover")
	}
	if Covers([]int{1, 3}, sets, []int{0}) {
		t.Fatal("should not cover")
	}
	if Covers([]int{1}, sets, []int{5}) {
		t.Fatal("out-of-range chosen index should not cover")
	}
}

// brute computes the true minimum cover size by enumerating all subsets.
func brute(universe []int, sets [][]int) int {
	best := -1
	for mask := 0; mask < 1<<len(sets); mask++ {
		var chosen []int
		for i := range sets {
			if mask&(1<<i) != 0 {
				chosen = append(chosen, i)
			}
		}
		if Covers(universe, sets, chosen) {
			if best < 0 || len(chosen) < best {
				best = len(chosen)
			}
		}
	}
	return best
}

// Property: the Engine's exact cover matches brute force on random small
// instances, and its greedy cover is never better than exact while always
// covering when coverable.
func TestExactMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nu := 1 + rng.Intn(8)
		universe := make([]int, nu)
		for i := range universe {
			universe[i] = i
		}
		ns := 1 + rng.Intn(8)
		sets := make([][]int, ns)
		for i := range sets {
			k := 1 + rng.Intn(nu)
			seen := map[int]struct{}{}
			for len(seen) < k {
				seen[rng.Intn(nu)] = struct{}{}
			}
			for v := range seen {
				sets[i] = append(sets[i], v)
			}
		}
		want := brute(universe, sets)
		eng, sc := coverEngine(universe, sets)
		e, _ := eng.ExactCover(sc, universe, nil)
		if want < 0 {
			return e == nil
		}
		if e == nil || len(e) != want || !Covers(universe, sets, e) {
			return false
		}
		g := eng.GreedyCover(sc, universe, rng)
		return g != nil && Covers(universe, sets, g) && len(g) >= len(e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: the k-set-cover bound never exceeds the exact cover size when
// k is the largest set size.
func TestLowerBoundSoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nu := 1 + rng.Intn(7)
		universe := make([]int, nu)
		for i := range universe {
			universe[i] = i
		}
		ns := 1 + rng.Intn(6)
		sets := make([][]int, ns)
		maxK := 1
		for i := range sets {
			k := 1 + rng.Intn(nu)
			if k > maxK {
				maxK = k
			}
			seen := map[int]struct{}{}
			for len(seen) < k {
				seen[rng.Intn(nu)] = struct{}{}
			}
			for v := range seen {
				sets[i] = append(sets[i], v)
			}
		}
		e := brute(universe, sets)
		if e < 0 {
			return true
		}
		return KSetCoverLowerBound(nu, maxK) <= e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

package search

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"hypertree/internal/elim"
	"hypertree/internal/hypergraph"
)

func TestBBTreewidthKnownGraphs(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *hypergraph.Graph
		want int
	}{
		{"K5", hypergraph.CliqueGraph(5), 4},
		{"grid2", hypergraph.Grid(2), 2},
		{"grid3", hypergraph.Grid(3), 3},
		{"grid4", hypergraph.Grid(4), 4},
		{"queen4", hypergraph.Queen(4), 11},
	} {
		r := BBTreewidth(tc.g, Options{Seed: 1})
		if !r.Exact || r.Width != tc.want {
			t.Errorf("%s: BB width=%d exact=%v, want %d exact", tc.name, r.Width, r.Exact, tc.want)
		}
		if r.LowerBound != r.Width {
			t.Errorf("%s: exact result has lb=%d != width=%d", tc.name, r.LowerBound, r.Width)
		}
		if r.Ordering != nil {
			if w := elim.WidthOfGraph(tc.g, r.Ordering); w != r.Width {
				t.Errorf("%s: ordering width %d != reported %d", tc.name, w, r.Width)
			}
		}
	}
}

func TestAStarTreewidthKnownGraphs(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *hypergraph.Graph
		want int
	}{
		{"K5", hypergraph.CliqueGraph(5), 4},
		{"grid3", hypergraph.Grid(3), 3},
		{"grid4", hypergraph.Grid(4), 4},
		{"grid5", hypergraph.Grid(5), 5},
		{"myciel3", hypergraph.Mycielski(3), 5},
	} {
		r := AStarTreewidth(tc.g, Options{Seed: 1})
		if !r.Exact || r.Width != tc.want {
			t.Errorf("%s: A* width=%d exact=%v, want %d exact", tc.name, r.Width, r.Exact, tc.want)
		}
		if r.Ordering != nil {
			if w := elim.WidthOfGraph(tc.g, r.Ordering); w != r.Width {
				t.Errorf("%s: ordering width %d != reported %d", tc.name, w, r.Width)
			}
		}
	}
}

func TestBBGHWKnownHypergraphs(t *testing.T) {
	tri := hypergraph.NewHypergraph(3)
	tri.AddEdge(0, 1)
	tri.AddEdge(1, 2)
	tri.AddEdge(0, 2)
	ex5 := hypergraph.NewHypergraph(6)
	ex5.AddEdge(0, 1, 2)
	ex5.AddEdge(0, 4, 5)
	ex5.AddEdge(2, 3, 4)
	acyc := hypergraph.NewHypergraph(4)
	acyc.AddEdge(0, 1, 2)
	acyc.AddEdge(2, 3)
	for _, tc := range []struct {
		name string
		h    *hypergraph.Hypergraph
		want int
	}{
		{"triangle", tri, 2},
		{"example5", ex5, 2},
		{"acyclic", acyc, 1},
		{"clique8", hypergraph.CliqueHypergraph(8), 4},
	} {
		r := BBGHW(tc.h, Options{Seed: 1})
		if !r.Exact || r.Width != tc.want {
			t.Errorf("%s: BB-ghw width=%d exact=%v, want %d exact", tc.name, r.Width, r.Exact, tc.want)
		}
		if r.Ordering != nil {
			ev := elim.NewGHWEvaluator(tc.h, true, nil)
			if w := ev.Width(r.Ordering); w != r.Width {
				t.Errorf("%s: ordering ghw %d != reported %d", tc.name, w, r.Width)
			}
		}
	}
}

func TestAStarGHWKnownHypergraphs(t *testing.T) {
	tri := hypergraph.NewHypergraph(3)
	tri.AddEdge(0, 1)
	tri.AddEdge(1, 2)
	tri.AddEdge(0, 2)
	for _, tc := range []struct {
		name string
		h    *hypergraph.Hypergraph
		want int
	}{
		{"triangle", tri, 2},
		{"grid2d6", hypergraph.Grid2D(6), 3},
		{"clique6", hypergraph.CliqueHypergraph(6), 3},
	} {
		r := AStarGHW(tc.h, Options{Seed: 1})
		if !r.Exact || r.Width != tc.want {
			t.Errorf("%s: A*-ghw width=%d exact=%v, want %d exact", tc.name, r.Width, r.Exact, tc.want)
		}
	}
}

func TestBudgetAbort(t *testing.T) {
	g := hypergraph.Queen(6) // too big to finish in 50 nodes
	r := BBTreewidth(g, Options{Seed: 1, MaxNodes: 50})
	if r.Exact {
		t.Fatal("50-node budget should not complete queen6")
	}
	if r.Width <= 0 || r.LowerBound <= 0 || r.LowerBound > r.Width {
		t.Fatalf("inconsistent anytime result: %+v", r)
	}
	a := AStarTreewidth(g, Options{Seed: 1, MaxNodes: 50})
	if a.Exact {
		t.Fatal("50-node budget should not complete queen6 (A*)")
	}
	if a.LowerBound > a.Width {
		t.Fatalf("A* lb %d > ub %d", a.LowerBound, a.Width)
	}
}

func TestTimeoutHonored(t *testing.T) {
	g := hypergraph.RandomGraph(60, 500, 3)
	start := time.Now()
	r := BBTreewidth(g, Options{Seed: 1, Timeout: 100 * time.Millisecond})
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("timeout ignored: ran %v", el)
	}
	_ = r
}

func TestInitialUBPriming(t *testing.T) {
	g := hypergraph.Grid(3)
	// Prime with the known optimum: search should confirm it.
	r := BBTreewidth(g, Options{Seed: 1, InitialUB: 3})
	if !r.Exact || r.Width != 3 {
		t.Fatalf("primed search got width=%d exact=%v", r.Width, r.Exact)
	}
}

// Property: BB and A* agree with exhaustive treewidth on random graphs, with
// and without the pruning machinery.
func TestTreewidthMatchesExhaustiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(5)
		m := rng.Intn(n*(n-1)/2 + 1)
		g := hypergraph.RandomGraph(n, m, seed)
		want := elim.ExhaustiveTreewidth(g)
		for _, opts := range []Options{
			{Seed: seed},
			{Seed: seed, DisablePR2: true},
			{Seed: seed, DisableReductions: true},
			{Seed: seed, DisableNodeLB: true},
			{Seed: seed, DedupeStates: true},
			{Seed: seed, DisablePR2: true, DisableReductions: true, DisableNodeLB: true},
		} {
			if r := BBTreewidth(g, opts); !r.Exact || r.Width != want {
				return false
			}
			if r := AStarTreewidth(g, opts); !r.Exact || r.Width != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: BB-ghw and A*-ghw agree with exhaustive ghw on random small
// hypergraphs, across pruning configurations.
func TestGHWMatchesExhaustiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(3)
		m := 3 + rng.Intn(5)
		h := hypergraph.RandomHypergraph(n, m, 1, 3, seed)
		covered := make([]bool, n)
		for _, e := range h.Edges() {
			for _, v := range e {
				covered[v] = true
			}
		}
		for v, c := range covered {
			if !c {
				h.AddEdge(v)
			}
		}
		want := elim.ExhaustiveGHW(h)
		for _, opts := range []Options{
			{Seed: seed},
			{Seed: seed, DisablePR2: true},
			{Seed: seed, DedupeStates: true},
			{Seed: seed, DisableReductions: true, DisableNodeLB: true},
		} {
			if r := BBGHW(h, opts); !r.Exact || r.Width != want {
				return false
			}
			if r := AStarGHW(h, opts); !r.Exact || r.Width != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: greedy-cover BB-ghw is an upper bound on exact ghw.
func TestBBGHWGreedyUpperBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(3)
		m := 3 + rng.Intn(4)
		h := hypergraph.RandomHypergraph(n, m, 1, 3, seed)
		covered := make([]bool, n)
		for _, e := range h.Edges() {
			for _, v := range e {
				covered[v] = true
			}
		}
		for v, c := range covered {
			if !c {
				h.AddEdge(v)
			}
		}
		want := elim.ExhaustiveGHW(h)
		r := bbGHW(h, Options{Seed: seed}, "bb-ghw-greedy", false)
		return r.Width >= want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

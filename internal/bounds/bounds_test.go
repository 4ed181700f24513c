package bounds

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hypertree/internal/elim"
	"hypertree/internal/hypergraph"
)

func TestMinorMinWidthKnown(t *testing.T) {
	// Clique K5: lower bound must be 4 (treewidth 4, MMW is exact here).
	if got := MinorMinWidth(hypergraph.CliqueGraph(5), nil); got != 4 {
		t.Errorf("K5 MMW = %d, want 4", got)
	}
	// A tree has treewidth 1; MMW on a tree gives 1.
	tree := hypergraph.NewGraph(6)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 5}} {
		tree.AddEdge(e[0], e[1])
	}
	if got := MinorMinWidth(tree, nil); got != 1 {
		t.Errorf("tree MMW = %d, want 1", got)
	}
	// C5 (treewidth 2): MMW gives 2.
	c5 := hypergraph.NewGraph(5)
	for i := 0; i < 5; i++ {
		c5.AddEdge(i, (i+1)%5)
	}
	if got := MinorMinWidth(c5, nil); got != 2 {
		t.Errorf("C5 MMW = %d, want 2", got)
	}
	// Empty graph: 0.
	if got := MinorMinWidth(hypergraph.NewGraph(4), nil); got != 0 {
		t.Errorf("empty MMW = %d, want 0", got)
	}
}

func TestMinorGammaRKnown(t *testing.T) {
	if got := MinorGammaR(hypergraph.CliqueGraph(6), nil); got != 5 {
		t.Errorf("K6 γR = %d, want 5", got)
	}
	if got := MinorGammaR(hypergraph.NewGraph(3), nil); got > 2 {
		t.Errorf("empty graph γR = %d, want <= 2", got)
	}
}

func TestMinFillUpperBoundGrid(t *testing.T) {
	// min-fill on the n×n grid achieves the exact treewidth n for small n.
	for n := 2; n <= 5; n++ {
		ub := MinFillUpperBound(hypergraph.Grid(n), nil)
		if ub < n {
			t.Errorf("grid%d min-fill ub = %d < treewidth %d (impossible)", n, ub, n)
		}
		if ub > n+1 {
			t.Errorf("grid%d min-fill ub = %d, expected near %d", n, ub, n)
		}
	}
}

func TestTwKscWidthKnown(t *testing.T) {
	// Triangle as binary hypergraph: tw lb = 2, arity 2: lb = ceil(3/2) = 2.
	tri := hypergraph.NewHypergraph(3)
	tri.AddEdge(0, 1)
	tri.AddEdge(1, 2)
	tri.AddEdge(0, 2)
	if got := TwKscWidth(tri, nil); got != 2 {
		t.Errorf("triangle tw-ksc = %d, want 2", got)
	}
	// Empty hypergraph: 0.
	if got := TwKscWidth(hypergraph.NewHypergraph(3), nil); got != 0 {
		t.Errorf("edgeless tw-ksc = %d, want 0", got)
	}
}

func TestTwKscWidthFrom(t *testing.T) {
	if got := TwKscWidthFrom(5, 3); got != 2 {
		t.Errorf("TwKscWidthFrom(5,3) = %d, want 2", got)
	}
	if got := TwKscWidthFrom(5, 0); got != 0 {
		t.Errorf("TwKscWidthFrom(5,0) = %d, want 0", got)
	}
}

// Property: every lower bound is at most the exhaustive treewidth, and the
// min-fill upper bound is at least it (soundness on small random graphs).
func TestBoundsSoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(6)
		m := rng.Intn(n*(n-1)/2 + 1)
		g := hypergraph.RandomGraph(n, m, seed)
		tw := elim.ExhaustiveTreewidth(g)
		if MinorMinWidth(g, rng) > tw {
			return false
		}
		if MinorGammaR(g, rng) > tw {
			return false
		}
		if TreewidthLowerBound(g, rng) > tw {
			return false
		}
		return MinFillUpperBound(g, rng) >= tw
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: tw-ksc-width never exceeds the exhaustive ghw (soundness of the
// thesis §8.1 combination).
func TestTwKscWidthSoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(4)
		m := 2 + rng.Intn(6)
		h := hypergraph.RandomHypergraph(n, m, 1, minInt(3, n), seed)
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
		ghw := elim.ExhaustiveGHW(h)
		return TwKscWidth(h, rng) <= ghw
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: GreedyGHWUpperBound is an upper bound on exhaustive ghw.
func TestGreedyGHWUpperBoundSoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(4)
		m := 2 + rng.Intn(5)
		h := hypergraph.RandomHypergraph(n, m, 1, minInt(3, n), seed)
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
		return GreedyGHWUpperBound(h, rng) >= elim.ExhaustiveGHW(h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestTwKscWidthMatchesPrimalGraph: tw-ksc-width on contraction graphs built
// from the hyperedges is the bound TreewidthLowerBound gives on the
// map-based primal graph, draw for draw of the same rng, on random
// hypergraphs and on circuits.
func TestTwKscWidthMatchesPrimalGraph(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		for _, h := range []*hypergraph.Hypergraph{
			hypergraph.RandomHypergraph(8+int(seed), 6+int(seed), 1, 5, seed),
			hypergraph.RandomCircuit(20+int(seed), 22+int(seed), seed),
		} {
			r1, r2 := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			got := TwKscWidth(h, r1)
			want := TwKscWidthFrom(TreewidthLowerBound(h.PrimalGraph(), r2), h.MaxArity())
			if got != want {
				t.Fatalf("seed %d: tw-ksc-width %d, from the primal graph %d", seed, got, want)
			}
			if a, b := r1.Int63(), r2.Int63(); a != b {
				t.Fatalf("seed %d: the two bounds left the rng in different states", seed)
			}
		}
	}
}

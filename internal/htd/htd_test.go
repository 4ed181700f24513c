package htd

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hypertree/internal/budget"
	"hypertree/internal/elim"
	"hypertree/internal/hypergraph"
)

func triangle() *hypergraph.Hypergraph {
	h := hypergraph.NewHypergraph(3)
	h.AddEdge(0, 1)
	h.AddEdge(1, 2)
	h.AddEdge(0, 2)
	return h
}

func TestHWOneIffAcyclic(t *testing.T) {
	// Acyclic hypergraph: hw = 1.
	h := hypergraph.NewHypergraph(5)
	h.AddEdge(0, 1, 2)
	h.AddEdge(2, 3)
	h.AddEdge(3, 4)
	g, ok, _ := DecideHW(h, 1, nil)
	if !ok {
		t.Fatal("acyclic hypergraph must have hw 1")
	}
	if err := g.Validate(h); err != nil {
		t.Fatal(err)
	}
	if g.Width() != 1 {
		t.Fatalf("width = %d, want 1", g.Width())
	}
	// Cyclic: hw > 1.
	if _, ok, _ := DecideHW(triangle(), 1, nil); ok {
		t.Fatal("triangle must not have hw 1")
	}
}

func TestHWTriangle(t *testing.T) {
	w, g, _ := HypertreeWidth(triangle(), 4, nil, nil)
	if w != 2 {
		t.Fatalf("hw(triangle) = %d, want 2", w)
	}
	if err := g.Validate(triangle()); err != nil {
		t.Fatal(err)
	}
}

func TestHWExample5(t *testing.T) {
	h := hypergraph.NewHypergraph(6)
	h.AddEdge(0, 1, 2)
	h.AddEdge(0, 4, 5)
	h.AddEdge(2, 3, 4)
	w, g, _ := HypertreeWidth(h, 4, nil, nil)
	if w != 2 { // ghw = 2 and a width-2 hypertree decomposition exists
		t.Fatalf("hw(example 5) = %d, want 2", w)
	}
	if err := g.Validate(h); err != nil {
		t.Fatal(err)
	}
}

func TestHWCliqueHypergraph(t *testing.T) {
	// K_n as binary hyperedges: hw = ceil(n/2) (one bag over all vertices).
	for _, n := range []int{4, 5, 6} {
		h := hypergraph.CliqueHypergraph(n)
		w, g, _ := HypertreeWidth(h, n, nil, nil)
		want := (n + 1) / 2
		if w != want {
			t.Errorf("hw(clique_%d) = %d, want %d", n, w, want)
		}
		if g != nil {
			if err := g.Validate(h); err != nil {
				t.Errorf("clique_%d: %v", n, err)
			}
		}
	}
}

func TestHWGrid2D(t *testing.T) {
	h := hypergraph.Grid2D(4)
	w, g, _ := HypertreeWidth(h, 4, nil, nil)
	if w < 2 || w > 4 {
		t.Fatalf("hw(grid2d_4) = %d, expected small", w)
	}
	if err := g.Validate(h); err != nil {
		t.Fatal(err)
	}
	// ghw ≤ hw.
	if ghw := elim.ExhaustiveGHW(h); w < ghw {
		t.Fatalf("hw %d < ghw %d (impossible)", w, ghw)
	}
}

func TestDecideHWEdgeCases(t *testing.T) {
	if _, ok, _ := DecideHW(hypergraph.NewHypergraph(3), 2, nil); ok {
		t.Fatal("edgeless hypergraph should be rejected")
	}
	if _, ok, _ := DecideHW(triangle(), 0, nil); ok {
		t.Fatal("k=0 should be rejected")
	}
	uncovered := hypergraph.NewHypergraph(3)
	uncovered.AddEdge(0, 1)
	if _, ok, _ := DecideHW(uncovered, 2, nil); ok {
		t.Fatal("uncovered vertices should be rejected")
	}
	if w, _, _ := HypertreeWidth(triangle(), 1, nil, nil); w != -1 {
		t.Fatalf("maxK too small should give -1, got %d", w)
	}
}

// TestDecideHWInterrupted: an exhausted budget must report interrupted,
// not a wrong "no decomposition" answer.
func TestDecideHWInterrupted(t *testing.T) {
	h := hypergraph.Grid2D(6)
	b := budget.New(nil, budget.Limits{MaxNodes: 5, CheckEvery: 1})
	g, ok, interrupted := DecideHW(h, 3, b)
	if ok || g != nil {
		t.Fatalf("5-node budget cannot decide grid2d_6 at k=3 (ok=%v)", ok)
	}
	if !interrupted {
		t.Fatal("budget-stopped run did not report interrupted")
	}
}

// Property: on random small hypergraphs, DecideHW's result brackets ghw:
// every returned decomposition is a valid GHD (so hw ≥ ghw holds by
// validity), and monotonicity in k holds.
func TestHWSoundAndMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(4)
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
		ghw := elim.ExhaustiveGHW(h)
		prevOK := false
		successes := 0
		for k := 1; k <= h.M() && successes < 2; k++ {
			g, ok, _ := DecideHW(h, k, nil)
			if prevOK && !ok {
				return false // monotone: once decomposable, stays so
			}
			if ok {
				prevOK = true
				successes++
				if g.Validate(h) != nil || g.Width() > k {
					return false
				}
				if k < ghw {
					return false // hw >= ghw: width-k HD implies ghw <= k
				}
			}
		}
		return prevOK // some k always succeeds (k = m is trivially enough)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property (3-approximation, Adler–Gottlob–Grohe): hw ≤ 3·ghw + 1.
func TestHWApproximationProperty(t *testing.T) {
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
		ghw := elim.ExhaustiveGHW(h)
		hw, _, _ := HypertreeWidth(h, 3*ghw+1, nil, nil)
		return hw >= ghw && hw <= 3*ghw+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

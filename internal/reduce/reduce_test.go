package reduce

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hypertree/internal/elim"
	"hypertree/internal/elimgraph"
	"hypertree/internal/hypergraph"
)

func TestFindSimplicial(t *testing.T) {
	// A path: endpoints are simplicial.
	p := hypergraph.NewGraph(4)
	p.AddEdge(0, 1)
	p.AddEdge(1, 2)
	p.AddEdge(2, 3)
	e := elimgraph.New(p)
	v := FindReduction(e, 0, false)
	if v != 0 && v != 3 {
		t.Fatalf("FindReduction (simplicial only) = %d, want an endpoint", v)
	}
	// C5 has no simplicial vertex.
	c5 := hypergraph.NewGraph(5)
	for i := 0; i < 5; i++ {
		c5.AddEdge(i, (i+1)%5)
	}
	if got := FindReduction(elimgraph.New(c5), 0, false); got != -1 {
		t.Fatalf("C5 FindReduction (simplicial only) = %d, want -1", got)
	}
}

func TestFindReductionAlmostSimplicial(t *testing.T) {
	// C5: every vertex is almost simplicial with degree 2; with lb >= 2 the
	// strongly-almost-simplicial rule fires, with lb < 2 it must not.
	c5 := hypergraph.NewGraph(5)
	for i := 0; i < 5; i++ {
		c5.AddEdge(i, (i+1)%5)
	}
	e := elimgraph.New(c5)
	if got := FindReduction(e, 1, true); got != -1 {
		t.Fatalf("lb=1: got %d, want -1 (degree 2 > lb)", got)
	}
	if got := FindReduction(e, 2, true); got < 0 {
		t.Fatal("lb=2: expected an almost simplicial reduction")
	}
	if got := FindReduction(e, 2, false); got != -1 {
		t.Fatalf("allowAlmost=false: got %d, want -1", got)
	}
}

// filled returns e's live filled graph as a simple graph: vertex ids are
// kept, eliminated vertices are isolated.
func filled(e *elimgraph.ElimGraph) *hypergraph.Graph {
	g := hypergraph.NewGraph(e.N())
	for v := 0; v < e.N(); v++ {
		if !e.Eliminated(v) {
			for _, u := range e.Neighbors(v, nil) {
				g.AddEdge(v, u)
			}
		}
	}
	return g
}

// Property: eliminating a simplicial vertex first never increases the
// treewidth (thesis §4.4.3) — verified against exhaustive search.
func TestSimplicialReductionSafeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(4)
		g := hypergraph.RandomGraph(n, rng.Intn(n*(n-1)/2+1), seed)
		e := elimgraph.New(g)
		v := FindReduction(e, 0, false)
		if v < 0 {
			return true
		}
		tw := elim.ExhaustiveTreewidth(g)
		d := e.Eliminate(v)
		// Best completion after forcing v first.
		best := d
		rest := elim.ExhaustiveTreewidth(filled(e))
		if rest > best {
			best = rest
		}
		e.Reset()
		return best == tw || best < tw // must never exceed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

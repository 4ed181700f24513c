package hypergraph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewGraphEmpty(t *testing.T) {
	g := NewGraph(5)
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("got n=%d m=%d, want 5, 0", g.N(), g.M())
	}
	for v := 0; v < 5; v++ {
		if g.Degree(v) != 0 {
			t.Errorf("vertex %d degree = %d, want 0", v, g.Degree(v))
		}
	}
}

func TestAddEdgeIdempotentAndSymmetric(t *testing.T) {
	g := NewGraph(4)
	if !g.AddEdge(0, 1) {
		t.Fatal("first AddEdge returned false")
	}
	if g.AddEdge(1, 0) {
		t.Fatal("duplicate AddEdge returned true")
	}
	if g.AddEdge(2, 2) {
		t.Fatal("self-loop AddEdge returned true")
	}
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge not symmetric")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := NewGraph(5)
	g.AddEdge(2, 4)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	ns := g.Neighbors(2)
	want := []int{0, 3, 4}
	if len(ns) != len(want) {
		t.Fatalf("neighbors = %v, want %v", ns, want)
	}
	for i := range ns {
		if ns[i] != want[i] {
			t.Fatalf("neighbors = %v, want %v", ns, want)
		}
	}
}

func TestEdgesSortedPairs(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(3, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 0)
	es := g.Edges()
	want := [][2]int{{0, 1}, {0, 2}, {1, 3}}
	if len(es) != len(want) {
		t.Fatalf("edges = %v, want %v", es, want)
	}
	for i := range es {
		if es[i] != want[i] {
			t.Fatalf("edges = %v, want %v", es, want)
		}
	}
}

func TestCliqueAndComplete(t *testing.T) {
	g := NewGraph(4)
	vs := []int{0, 1, 3}
	if g.IsClique(vs) {
		t.Fatal("empty graph reported clique on 3 vertices")
	}
	added := g.Complete(vs)
	if added != 3 {
		t.Fatalf("Complete added %d edges, want 3", added)
	}
	if !g.IsClique(vs) {
		t.Fatal("Complete did not form clique")
	}
	if g.Complete(vs) != 0 {
		t.Fatal("second Complete added edges")
	}
	// Singleton and empty sets are trivially cliques.
	if !g.IsClique(nil) || !g.IsClique([]int{2}) {
		t.Fatal("trivial sets not cliques")
	}
}

func TestGraphPanicsOutOfRange(t *testing.T) {
	g := NewGraph(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range vertex")
		}
	}()
	g.AddEdge(0, 2)
}

// Property: for random graphs, the degree sum equals twice the edge count.
func TestDegreeSumProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		m := rng.Intn(n * (n - 1) / 2)
		g := RandomGraph(n, m, seed)
		sum := 0
		for v := 0; v < n; v++ {
			sum += g.Degree(v)
		}
		return sum == 2*g.M() && g.M() == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Edges() returns each edge exactly once with u < v.
func TestEdgesCanonicalProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := RandomGraph(12, 30, seed)
		es := g.Edges()
		if len(es) != g.M() {
			return false
		}
		seen := make(map[[2]int]bool)
		for _, e := range es {
			if e[0] >= e[1] || seen[e] || !g.HasEdge(e[0], e[1]) {
				return false
			}
			seen[e] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// IsClique reports whether every pair of the given vertices is adjacent:
// the clique check of the Complete and generator tests.
func (g *Graph) IsClique(vs []int) bool {
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			if !g.HasEdge(vs[i], vs[j]) {
				return false
			}
		}
	}
	return true
}

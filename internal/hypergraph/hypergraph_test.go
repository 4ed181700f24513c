package hypergraph

import (
	"testing"
	"testing/quick"
)

// exampleHypergraph builds the hypergraph of thesis Example 5 / Figure 2.6:
// vertices x1..x6 (ids 0..5), hyperedges {x1,x2,x3}, {x1,x5,x6}, {x3,x4,x5}.
func exampleHypergraph() *Hypergraph {
	h := NewHypergraph(6)
	h.AddEdge(0, 1, 2)
	h.AddEdge(0, 4, 5)
	h.AddEdge(2, 3, 4)
	return h
}

func TestHypergraphBasics(t *testing.T) {
	h := exampleHypergraph()
	if h.N() != 6 || h.M() != 3 {
		t.Fatalf("n=%d m=%d, want 6, 3", h.N(), h.M())
	}
	if h.MaxArity() != 3 {
		t.Fatalf("MaxArity = %d, want 3", h.MaxArity())
	}
	if !h.EdgeContains(0, 1) || h.EdgeContains(0, 3) {
		t.Fatal("EdgeContains wrong")
	}
	if got := len(h.IncidentEdges(0)); got != 2 {
		t.Fatalf("IncidentEdges(0) = %d edges, want 2", got)
	}
	if got := len(h.IncidentEdges(3)); got != 1 {
		t.Fatalf("IncidentEdges(3) = %d edges, want 1", got)
	}
	if !h.CoversAllVertices() {
		t.Fatal("all vertices are covered")
	}
}

func TestAddEdgeDeduplicatesAndSorts(t *testing.T) {
	h := NewHypergraph(5)
	e := h.AddEdge(3, 1, 3, 0)
	edge := h.Edge(e)
	want := []int{0, 1, 3}
	if len(edge) != len(want) {
		t.Fatalf("edge = %v, want %v", edge, want)
	}
	for i := range edge {
		if edge[i] != want[i] {
			t.Fatalf("edge = %v, want %v", edge, want)
		}
	}
}

func TestIncidentEdgesInvalidatedOnAdd(t *testing.T) {
	h := NewHypergraph(3)
	h.AddEdge(0, 1)
	if got := len(h.IncidentEdges(2)); got != 0 {
		t.Fatalf("IncidentEdges(2) = %d edges, want 0", got)
	}
	h.AddEdge(1, 2)
	if got := len(h.IncidentEdges(2)); got != 1 {
		t.Fatalf("after add, IncidentEdges(2) = %d edges, want 1", got)
	}
}

// Primal graph of Example 5 (thesis Fig. 2.6a): x1x2, x1x3, x2x3, x1x5,
// x1x6, x5x6, x3x4, x3x5, x4x5 — nine edges.
func TestPrimalGraphExample5(t *testing.T) {
	g := exampleHypergraph().PrimalGraph()
	if g.M() != 9 {
		t.Fatalf("primal edges = %d, want 9", g.M())
	}
	mustHave := [][2]int{{0, 1}, {0, 2}, {1, 2}, {0, 4}, {0, 5}, {4, 5}, {2, 3}, {2, 4}, {3, 4}}
	for _, e := range mustHave {
		if !g.HasEdge(e[0], e[1]) {
			t.Errorf("primal graph missing edge %v", e)
		}
	}
	if g.HasEdge(1, 3) {
		t.Error("primal graph has spurious edge {x2,x4}")
	}
}

func TestFromGraphRoundTrip(t *testing.T) {
	g := Grid(3)
	h := FromGraph(g)
	if h.N() != g.N() || h.M() != g.M() {
		t.Fatalf("FromGraph sizes wrong: %v vs %v", h, g)
	}
	// The primal graph of a graph-as-hypergraph is the graph itself.
	p := h.PrimalGraph()
	if p.M() != g.M() {
		t.Fatalf("primal of FromGraph has %d edges, want %d", p.M(), g.M())
	}
	for _, e := range g.Edges() {
		if !p.HasEdge(e[0], e[1]) {
			t.Fatalf("primal missing %v", e)
		}
	}
}

func TestHypergraphNames(t *testing.T) {
	h := NewHypergraph(2)
	e := h.AddEdge(0, 1)
	if h.VertexName(0) != "0" || h.EdgeName(e) != "e0" {
		t.Fatal("default names wrong")
	}
	h.SetVertexName(0, "x1")
	h.SetEdgeName(e, "c1")
	if h.VertexName(0) != "x1" || h.EdgeName(e) != "c1" {
		t.Fatal("names not stored")
	}
}

// Property: primal graph edge count never exceeds sum over edges of C(|e|,2),
// and every co-occurring pair is adjacent.
func TestPrimalGraphProperty(t *testing.T) {
	f := func(seed int64) bool {
		h := RandomHypergraph(10, 8, 2, 4, seed)
		g := h.PrimalGraph()
		for _, edge := range h.Edges() {
			for i := 0; i < len(edge); i++ {
				for j := i + 1; j < len(edge); j++ {
					if !g.HasEdge(edge[i], edge[j]) {
						return false
					}
				}
			}
		}
		bound := 0
		for _, edge := range h.Edges() {
			k := len(edge)
			bound += k * (k - 1) / 2
		}
		return g.M() <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

package elimgraph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hypertree/internal/hypergraph"
)

// fig52Graph builds the 6-vertex graph of thesis Figure 5.2(a):
// vertices 1..6 (ids 0..5) with edges 1-2, 1-3, 2-3, 2-6, 3-4, 4-5, 5-6.
func fig52Graph() *hypergraph.Graph {
	g := hypergraph.NewGraph(6)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	g.AddEdge(1, 5)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	return g
}

// Thesis Figure 5.2: eliminating vertex 6 connects its neighbors {2,5};
// eliminating vertex 2 then connects {1,3,5} pairwise.
func TestFigure52Elimination(t *testing.T) {
	e := New(fig52Graph())
	// Eliminate vertex 6 (id 5): neighbors are 2 (id 1) and 5 (id 4).
	d := e.Eliminate(5)
	if d != 2 {
		t.Fatalf("degree of vertex 6 at elimination = %d, want 2", d)
	}
	if !e.HasEdge(1, 4) {
		t.Fatal("fill edge 2-5 missing after eliminating 6")
	}
	// Eliminate vertex 2 (id 1): neighbors now 1 (id 0), 3 (id 2), 5 (id 4).
	d = e.Eliminate(1)
	if d != 3 {
		t.Fatalf("degree of vertex 2 at elimination = %d, want 3", d)
	}
	for _, pair := range [][2]int{{0, 2}, {0, 4}, {2, 4}} {
		if !e.HasEdge(pair[0], pair[1]) {
			t.Errorf("missing fill/induced edge %v after eliminating 2", pair)
		}
	}
	if e.Live() != 4 {
		t.Fatalf("live = %d, want 4", e.Live())
	}
	// Restoring both returns to the original graph.
	if got := e.Restore(); got != 1 {
		t.Fatalf("restore returned %d, want 1", got)
	}
	if got := e.Restore(); got != 5 {
		t.Fatalf("restore returned %d, want 5", got)
	}
	assertEqualsGraph(t, e, fig52Graph())
}

func assertEqualsGraph(t *testing.T, e *ElimGraph, g *hypergraph.Graph) {
	t.Helper()
	if e.Live() != g.N() {
		t.Fatalf("live = %d, want %d", e.Live(), g.N())
	}
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if u == v {
				continue
			}
			if e.HasEdge(u, v) != g.HasEdge(u, v) {
				t.Fatalf("edge (%d,%d): elim=%v graph=%v", u, v, e.HasEdge(u, v), g.HasEdge(u, v))
			}
		}
		if e.Degree(u) != g.Degree(u) {
			t.Fatalf("degree(%d): elim=%d graph=%d", u, e.Degree(u), g.Degree(u))
		}
	}
}

func TestNeighborsFiltersEliminated(t *testing.T) {
	e := New(fig52Graph())
	e.Eliminate(5)
	ns := e.Neighbors(1, nil)
	for _, u := range ns {
		if u == 5 {
			t.Fatal("eliminated vertex returned as neighbor")
		}
	}
	// Vertex 2 (id 1) gained fill-neighbor 5 (id 4).
	found := false
	for _, u := range ns {
		if u == 4 {
			found = true
		}
	}
	if !found {
		t.Fatal("fill neighbor missing from Neighbors")
	}
}

func TestFillCountAndSimplicial(t *testing.T) {
	g := hypergraph.NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	g.AddEdge(1, 2)
	e := New(g)
	// N(0) = {1,2,3}; 1-2 present, 1-3 and 2-3 missing: fill = 2.
	if got := e.FillCount(0); got != 2 {
		t.Fatalf("FillCount(0) = %d, want 2", got)
	}
	// Vertex 3 has a single neighbor: simplicial.
	if !e.IsSimplicial(3) {
		t.Fatal("leaf should be simplicial")
	}
	if e.IsSimplicial(0) {
		t.Fatal("vertex 0 should not be simplicial")
	}
	// Vertex 0 is almost simplicial: removing 3 from N(0) leaves clique {1,2}.
	if !e.IsAlmostSimplicial(0) {
		t.Fatal("vertex 0 should be almost simplicial")
	}
	// A simplicial vertex is not almost simplicial.
	if e.IsAlmostSimplicial(3) {
		t.Fatal("simplicial vertex reported almost simplicial")
	}
}

func TestIsAlmostSimplicialNeedsSingleBlocker(t *testing.T) {
	// C5: every vertex has two non-adjacent neighbors; removing either one
	// leaves a single vertex (a clique), so C5 vertices ARE almost simplicial.
	c5 := hypergraph.NewGraph(5)
	for i := 0; i < 5; i++ {
		c5.AddEdge(i, (i+1)%5)
	}
	e := New(c5)
	if !e.IsAlmostSimplicial(0) {
		t.Fatal("C5 vertex should be almost simplicial")
	}
	// C6 with chords making N(0)'s missing pairs share no endpoint:
	// N(0)={1,2,3,4}, edges 1-2, 3-4 only; missing 1-3,1-4,2-3,2-4: no single
	// endpoint covers all misses.
	g := hypergraph.NewGraph(5)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	g.AddEdge(0, 4)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	e2 := New(g)
	if e2.IsAlmostSimplicial(0) {
		t.Fatal("vertex 0 should not be almost simplicial")
	}
}

func TestSetPrefix(t *testing.T) {
	g := hypergraph.Queen(4)
	e := New(g)
	e.SetPrefix([]int{3, 7, 1})
	if e.Depth() != 3 || e.Live() != g.N()-3 {
		t.Fatalf("depth=%d live=%d", e.Depth(), e.Live())
	}
	// Switch to a sibling prefix sharing the first two entries.
	e.SetPrefix([]int{3, 7, 2, 9})
	st := e.Stack()
	want := []int{3, 7, 2, 9}
	if len(st) != len(want) {
		t.Fatalf("stack = %v, want %v", st, want)
	}
	for i := range st {
		if st[i] != want[i] {
			t.Fatalf("stack = %v, want %v", st, want)
		}
	}
	// Full reset matches a fresh graph.
	e.SetPrefix(nil)
	assertEqualsGraph(t, e, g)
}

func TestResetAfterDeepElimination(t *testing.T) {
	g := hypergraph.Queen(5)
	e := New(g)
	order := rand.New(rand.NewSource(1)).Perm(g.N())
	for _, v := range order[:20] {
		e.Eliminate(v)
	}
	e.Reset()
	assertEqualsGraph(t, e, g)
}

func TestEliminateTwicePanics(t *testing.T) {
	e := New(fig52Graph())
	e.Eliminate(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Eliminate(0)
}

func TestRestoreEmptyPanics(t *testing.T) {
	e := New(fig52Graph())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Restore()
}

// Property: eliminate a random sequence then restore everything; the result
// must equal the original graph (adjacency and degrees).
func TestEliminateRestoreRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(12)
		m := rng.Intn(n*(n-1)/2 + 1)
		g := hypergraph.RandomGraph(n, m, seed)
		e := New(g)
		k := rng.Intn(n + 1)
		perm := rng.Perm(n)
		for _, v := range perm[:k] {
			e.Eliminate(v)
		}
		e.Reset()
		for u := 0; u < n; u++ {
			if e.Degree(u) != g.Degree(u) {
				return false
			}
			for v := 0; v < n; v++ {
				if u != v && e.HasEdge(u, v) != g.HasEdge(u, v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: after eliminating v, its former live neighbors form a clique.
func TestEliminationCreatesCliqueProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(10)
		g := hypergraph.RandomGraph(n, n, seed)
		e := New(g)
		v := rng.Intn(n)
		ns := append([]int(nil), e.Neighbors(v, nil)...)
		e.Eliminate(v)
		for i := 0; i < len(ns); i++ {
			for j := i + 1; j < len(ns); j++ {
				if !e.HasEdge(ns[i], ns[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Snapshot agrees with HasEdge on every pair.
func TestSnapshotProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(8)
		g := hypergraph.RandomGraph(n, n+2, seed)
		e := New(g)
		for _, v := range rng.Perm(n)[:n/2] {
			e.Eliminate(v)
		}
		snap := e.Snapshot()
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				live := !e.Eliminated(u) && !e.Eliminated(v)
				if snap.HasEdge(u, v) != (live && e.HasEdge(u, v)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Stack returns the eliminated vertices in elimination order, the tests'
// view of the undo stack. The slice is freshly allocated.
func (e *ElimGraph) Stack() []int {
	out := make([]int, len(e.undo))
	for i, s := range e.undo {
		out[i] = s.v
	}
	return out
}

// HasEdge reports whether {u,v} is an edge of the current (filled) graph,
// the tests' view of the adjacency matrix. Both endpoints must be live for
// a true result.
func (e *ElimGraph) HasEdge(u, v int) bool {
	return e.matrix[u*e.n+v]
}

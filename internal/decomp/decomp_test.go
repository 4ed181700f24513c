package decomp

import (
	"math/rand"
	"testing"
	"time"

	"hypertree/internal/hypergraph"
	"hypertree/internal/setcover"
)

// example5 returns the thesis Example 5 hypergraph: vertices x1..x6
// (ids 0..5), hyperedges e0={x1,x2,x3}, e1={x1,x5,x6}, e2={x3,x4,x5}.
func example5() *hypergraph.Hypergraph {
	h := hypergraph.NewHypergraph(6)
	h.AddEdge(0, 1, 2)
	h.AddEdge(0, 4, 5)
	h.AddEdge(2, 3, 4)
	return h
}

// example5TD returns the width-2 tree decomposition of Figure 2.6(b):
// root {x1,x3,x5} with children {x1,x2,x3}, {x3,x4,x5}, {x1,x5,x6}.
func example5TD() *TreeDecomposition {
	return &TreeDecomposition{
		Tree: Tree{Parent: []int{-1, 0, 0, 0}, Root: 0},
		Bags: [][]int{{0, 2, 4}, {0, 1, 2}, {2, 3, 4}, {0, 4, 5}},
	}
}

func TestExample5TDValid(t *testing.T) {
	h := example5()
	td := example5TD()
	if err := td.Validate(h); err != nil {
		t.Fatal(err)
	}
	if td.Width() != 2 {
		t.Fatalf("width = %d, want 2", td.Width())
	}
}

func TestValidateRejectsMissingEdgeCoverage(t *testing.T) {
	h := example5()
	td := example5TD()
	td.Bags[3] = []int{0, 4} // drop x6: edge e1 no longer covered
	if err := td.Validate(h); err == nil {
		t.Fatal("expected error for uncovered hyperedge")
	}
}

func TestValidateRejectsDisconnectedVertex(t *testing.T) {
	h := example5()
	// x1 (0) appears in bags 1 and 3 but not in the root connecting them.
	td := &TreeDecomposition{
		Tree: Tree{Parent: []int{-1, 0, 0, 0}, Root: 0},
		Bags: [][]int{{2, 4}, {0, 1, 2}, {2, 3, 4}, {0, 4, 5}},
	}
	if err := td.Validate(h); err == nil {
		t.Fatal("expected connectedness violation")
	}
}

func TestValidateRejectsBadTrees(t *testing.T) {
	h := example5()
	cases := map[string]*TreeDecomposition{
		"cycle": {
			Tree: Tree{Parent: []int{1, 0}, Root: 0},
			Bags: [][]int{{0, 1, 2, 3, 4, 5}, {0, 1}},
		},
		"bad root": {
			Tree: Tree{Parent: []int{-1}, Root: 5},
			Bags: [][]int{{0, 1, 2, 3, 4, 5}},
		},
		"root has parent": {
			Tree: Tree{Parent: []int{0}, Root: 0},
			Bags: [][]int{{0, 1, 2, 3, 4, 5}},
		},
		"unsorted bag": {
			Tree: Tree{Parent: []int{-1}, Root: 0},
			Bags: [][]int{{5, 4, 3, 2, 1, 0}},
		},
		"bag count mismatch": {
			Tree: Tree{Parent: []int{-1, 0}, Root: 0},
			Bags: [][]int{{0, 1, 2, 3, 4, 5}},
		},
		"invalid vertex": {
			Tree: Tree{Parent: []int{-1}, Root: 0},
			Bags: [][]int{{0, 1, 2, 3, 4, 99}},
		},
	}
	for name, td := range cases {
		if err := td.Validate(h); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestSingleBagTDValid(t *testing.T) {
	h := example5()
	td := &TreeDecomposition{
		Tree: Tree{Parent: []int{-1}, Root: 0},
		Bags: [][]int{{0, 1, 2, 3, 4, 5}},
	}
	if err := td.Validate(h); err != nil {
		t.Fatal(err)
	}
	if td.Width() != 5 {
		t.Fatalf("width = %d, want 5", td.Width())
	}
}

// Figure 2.7's width-2 GHD for Example 5.
func TestExample5GHDValid(t *testing.T) {
	h := example5()
	g := &GHD{
		TreeDecomposition: *example5TD(),
		Lambdas:           [][]int{{0, 2}, {0}, {2}, {1}},
	}
	if err := g.Validate(h); err != nil {
		t.Fatal(err)
	}
	if g.Width() != 2 {
		t.Fatalf("ghd width = %d, want 2", g.Width())
	}
}

func TestGHDValidateRejectsUncoveredChi(t *testing.T) {
	h := example5()
	g := &GHD{
		TreeDecomposition: *example5TD(),
		Lambdas:           [][]int{{0}, {0}, {2}, {1}}, // root bag {x1,x3,x5}: e0 misses x5
	}
	if err := g.Validate(h); err == nil {
		t.Fatal("expected λ-cover violation")
	}
}

func TestGHDValidateRejectsBadEdgeIndex(t *testing.T) {
	h := example5()
	g := &GHD{
		TreeDecomposition: *example5TD(),
		Lambdas:           [][]int{{0, 9}, {0}, {2}, {1}},
	}
	if err := g.Validate(h); err == nil {
		t.Fatal("expected invalid edge index error")
	}
}

func TestCompleteGHD(t *testing.T) {
	h := example5()
	// A single-node GHD covering everything; no edge is witnessed with
	// h ∈ λ(p) and h ⊆ χ(p) simultaneously... actually all three edges are
	// in λ of the node and inside its bag, so use a sparser λ-free variant:
	g := &GHD{
		TreeDecomposition: TreeDecomposition{
			Tree: Tree{Parent: []int{-1}, Root: 0},
			Bags: [][]int{{0, 1, 2, 3, 4, 5}},
		},
		Lambdas: [][]int{{0, 1, 2}},
	}
	if err := g.Validate(h); err != nil {
		t.Fatal(err)
	}
	if !g.IsComplete(h) {
		t.Fatal("single-bag GHD with all edges in λ should be complete")
	}

	g2 := &GHD{
		TreeDecomposition: *example5TD(),
		Lambdas:           [][]int{{0, 2}, {0}, {2}, {1}},
	}
	// g2 is complete already (each edge sits in a leaf with itself in λ).
	if !g2.IsComplete(h) {
		t.Fatal("example GHD should be complete")
	}

	// Break completeness: add a duplicate of e1 as e3. The decomposition is
	// still valid (e3 lives inside node 3's bag) but e3 appears in no λ, so
	// the GHD is not complete.
	h4 := example5()
	h4.AddEdge(0, 4, 5) // e3, duplicate of e1
	g3 := &GHD{
		TreeDecomposition: *example5TD(),
		Lambdas:           [][]int{{0, 2}, {0}, {2}, {1}},
	}
	if err := g3.Validate(h4); err != nil {
		t.Fatal(err)
	}
	if g3.IsComplete(h4) {
		t.Fatal("g3 should not be complete (e3 in no λ)")
	}
	w := g3.Width()
	nodesBefore := len(g3.Bags)
	g3.Complete(h4)
	if !g3.IsComplete(h4) {
		t.Fatal("Complete did not complete")
	}
	if err := g3.Validate(h4); err != nil {
		t.Fatalf("completed GHD invalid: %v", err)
	}
	if g3.Width() > w {
		t.Fatalf("Complete grew width from %d to %d", w, g3.Width())
	}
	if len(g3.Bags) != nodesBefore+1 {
		t.Fatalf("Complete added %d nodes, want 1", len(g3.Bags)-nodesBefore)
	}
}

func TestFromTreeDecomposition(t *testing.T) {
	h := example5()
	td := example5TD()
	for _, mode := range []CoverMode{CoverGreedy, CoverExact} {
		g, err := FromTreeDecompositionWithEngine(setcover.NewEngine(h, 0), td, mode, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(h); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if g.Width() != 2 {
			t.Fatalf("mode %v: width = %d, want 2", mode, g.Width())
		}
	}
}

func TestFromTreeDecompositionUncoverable(t *testing.T) {
	// Vertex 2 is in no hyperedge but sits in a bag.
	h := hypergraph.NewHypergraph(3)
	h.AddEdge(0, 1)
	td := &TreeDecomposition{
		Tree: Tree{Parent: []int{-1}, Root: 0},
		Bags: [][]int{{0, 1, 2}},
	}
	if _, err := FromTreeDecompositionWithEngine(setcover.NewEngine(h, 0), td, CoverExact, nil); err == nil {
		t.Fatal("expected uncoverable error")
	}
}

func TestTreeChildren(t *testing.T) {
	tr := Tree{Parent: []int{-1, 0, 0, 1}, Root: 0}
	ch := tr.Children()
	if len(ch[0]) != 2 || len(ch[1]) != 1 || len(ch[3]) != 0 {
		t.Fatalf("children = %v", ch)
	}
}

// Validate must handle degenerate deep trees in linear time: a 50k-node
// path used to take quadratic parent-chain walks. The budget here is
// generous (the old code needed ~1.25G steps; the new one 50k), so the test
// fails by timeout only if the quadratic behavior comes back.
func TestTreeValidateLinearOnDeepPath(t *testing.T) {
	const n = 50000
	parent := make([]int, n)
	parent[0] = -1
	for i := 1; i < n; i++ {
		parent[i] = i - 1 // node i hangs off node i-1: one long path
	}
	tr := Tree{Parent: parent, Root: 0}
	start := time.Now()
	if err := tr.Validate(); err != nil {
		t.Fatalf("path tree rejected: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Validate took %v on a 50k path; quadratic walk is back", d)
	}
	// A cycle far from the root must still be detected.
	parent[n-1] = n / 2
	parent[n/2] = n - 1
	if err := tr.Validate(); err == nil {
		t.Fatal("deep cycle not detected")
	}
}

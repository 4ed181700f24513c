package hypergraph

import (
	"testing"
	"testing/quick"
)

func TestAcyclicSingleEdge(t *testing.T) {
	h := NewHypergraph(3)
	h.AddEdge(0, 1, 2)
	jt, ok := BuildJoinTree(h)
	if !ok {
		t.Fatal("single edge should be acyclic")
	}
	if !VerifyJoinTree(h, jt) {
		t.Fatal("join tree invalid")
	}
}

// The thesis Figure 2.3 hypergraph is acyclic; the triangle hypergraph
// {a,b},{b,c},{c,a} is the canonical cyclic example.
func TestAcyclicTriangleIsCyclic(t *testing.T) {
	h := NewHypergraph(3)
	h.AddEdge(0, 1)
	h.AddEdge(1, 2)
	h.AddEdge(2, 0)
	if IsAcyclic(h) {
		t.Fatal("triangle should be cyclic")
	}
}

func TestAcyclicPath(t *testing.T) {
	h := NewHypergraph(4)
	h.AddEdge(0, 1)
	h.AddEdge(1, 2)
	h.AddEdge(2, 3)
	jt, ok := BuildJoinTree(h)
	if !ok {
		t.Fatal("path should be acyclic")
	}
	if !VerifyJoinTree(h, jt) {
		t.Fatal("join tree invalid")
	}
}

// A 3-cycle covered by one big edge is acyclic (the big edge absorbs it).
func TestAcyclicCoveredTriangle(t *testing.T) {
	h := NewHypergraph(3)
	h.AddEdge(0, 1)
	h.AddEdge(1, 2)
	h.AddEdge(2, 0)
	h.AddEdge(0, 1, 2)
	jt, ok := BuildJoinTree(h)
	if !ok {
		t.Fatal("covered triangle should be acyclic")
	}
	if !VerifyJoinTree(h, jt) {
		t.Fatal("join tree invalid")
	}
}

// Example 5's hypergraph ({x1,x2,x3}, {x1,x5,x6}, {x3,x4,x5}) is cyclic:
// the three edges pairwise intersect in single distinct vertices forming a
// cycle; the thesis decomposes it with width 2 precisely because it is not
// acyclic.
func TestExample5IsCyclic(t *testing.T) {
	if IsAcyclic(exampleHypergraph()) {
		t.Fatal("Example 5 hypergraph should be cyclic")
	}
}

func TestStarIsAcyclic(t *testing.T) {
	// Edges {0,1,2},{0,3},{0,4},{1,5}: tree-shaped overlaps.
	h := NewHypergraph(6)
	h.AddEdge(0, 1, 2)
	h.AddEdge(0, 3)
	h.AddEdge(0, 4)
	h.AddEdge(1, 5)
	jt, ok := BuildJoinTree(h)
	if !ok {
		t.Fatal("star should be acyclic")
	}
	if !VerifyJoinTree(h, jt) {
		t.Fatal("join tree invalid")
	}
}

func TestEmptyHypergraphAcyclic(t *testing.T) {
	h := NewHypergraph(0)
	jt, ok := BuildJoinTree(h)
	if !ok || jt.Root != -1 {
		t.Fatal("empty hypergraph should be trivially acyclic")
	}
}

func TestJoinTreeChildren(t *testing.T) {
	jt := &JoinTree{Parent: []int{2, 2, -1}, Root: 2}
	ch := jt.Children()
	if len(ch[2]) != 2 || len(ch[0]) != 0 {
		t.Fatalf("children = %v", ch)
	}
}

// Property: whenever BuildJoinTree succeeds, the tree verifies.
func TestJoinTreeAlwaysVerifiesProperty(t *testing.T) {
	f := func(seed int64) bool {
		h := RandomHypergraph(8, 6, 1, 4, seed)
		jt, ok := BuildJoinTree(h)
		if !ok {
			return true // cyclic: nothing to verify
		}
		return VerifyJoinTree(h, jt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a hypergraph whose dual overlap structure is a tree by
// construction (edges chained, consecutive sharing one fresh vertex) is
// always acyclic.
func TestChainHypergraphAcyclicProperty(t *testing.T) {
	f := func(kRaw uint8) bool {
		k := 2 + int(kRaw%10)
		// k edges: edge i = {2i, 2i+1, 2i+2}; consecutive edges share vertex 2i+2.
		h := NewHypergraph(2*k + 1)
		for i := 0; i < k; i++ {
			h.AddEdge(2*i, 2*i+1, 2*i+2)
		}
		jt, ok := BuildJoinTree(h)
		return ok && VerifyJoinTree(h, jt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Children returns, for each node, the list of its children.
func (t *JoinTree) Children() [][]int {
	ch := make([][]int, len(t.Parent))
	for i, p := range t.Parent {
		if p >= 0 {
			ch[p] = append(ch[p], i)
		}
	}
	return ch
}

// VerifyJoinTree checks that t is a valid join tree for h: it is a tree over
// all hyperedges and satisfies the connectedness condition. It is the
// checker BuildJoinTree's tests hold it to.
func VerifyJoinTree(h *Hypergraph, t *JoinTree) bool {
	m := h.M()
	if m == 0 {
		return t.Root == -1 && len(t.Parent) == 0
	}
	if len(t.Parent) != m || t.Root < 0 || t.Root >= m || t.Parent[t.Root] != -1 {
		return false
	}
	// Every non-root node has a parent and the structure is acyclic and
	// connected (i.e., walking parents from any node reaches the root).
	for i := 0; i < m; i++ {
		seen := make(map[int]struct{})
		v := i
		for v != t.Root {
			if _, loop := seen[v]; loop {
				return false
			}
			seen[v] = struct{}{}
			p := t.Parent[v]
			if p < 0 || p >= m {
				return false
			}
			v = p
		}
	}
	// Connectedness: for each vertex, edges containing it induce a subtree.
	// Equivalent check: for each vertex v, the set S of nodes containing v is
	// connected in the tree. We test it by counting nodes of S whose parent is
	// also in S: a subtree has exactly |S|-1 such nodes.
	for v := 0; v < h.N(); v++ {
		inS := make(map[int]struct{})
		for _, e := range h.IncidentEdges(v) {
			inS[e] = struct{}{}
		}
		if len(inS) == 0 {
			continue
		}
		withParentIn := 0
		for e := range inS {
			if p := t.Parent[e]; p >= 0 {
				if _, ok := inS[p]; ok {
					withParentIn++
				}
			}
		}
		if withParentIn != len(inS)-1 {
			return false
		}
	}
	return true
}

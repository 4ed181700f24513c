package decomp

import (
	"fmt"
	"sort"
	"testing"

	"hypertree/internal/hypergraph"
)

func TestTransformLeafNormalFormExample5(t *testing.T) {
	h := example5()
	td := example5TD()
	lnf := TransformLeafNormalForm(h, td)
	if err := lnf.TD.Validate(h); err != nil {
		t.Fatalf("LNF not a valid TD: %v", err)
	}
	if err := IsLeafNormalForm(h, lnf.TD, lnf.Leaf); err != nil {
		t.Fatalf("not in leaf normal form: %v", err)
	}
	// Theorem 1: every new bag is contained in some original bag.
	for _, nb := range lnf.TD.Bags {
		found := false
		for _, ob := range td.Bags {
			if containsAll(ob, nb) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("bag %v not contained in any original bag", nb)
		}
	}
	// Exactly one leaf per hyperedge, labeled by it.
	for e := 0; e < h.M(); e++ {
		if !equalInts(lnf.TD.Bags[lnf.Leaf[e]], h.Edge(e)) {
			t.Fatalf("leaf for edge %d labeled %v", e, lnf.TD.Bags[lnf.Leaf[e]])
		}
	}
}

func TestTransformLeafNormalFormSingleEdge(t *testing.T) {
	h := hypergraph.NewHypergraph(3)
	h.AddEdge(0, 1, 2)
	td := &TreeDecomposition{
		Tree: Tree{Parent: []int{-1}, Root: 0},
		Bags: [][]int{{0, 1, 2}},
	}
	lnf := TransformLeafNormalForm(h, td)
	if err := lnf.TD.Validate(h); err != nil {
		t.Fatal(err)
	}
	if err := IsLeafNormalForm(h, lnf.TD, lnf.Leaf); err != nil {
		t.Fatal(err)
	}
}

// A wide single-bag decomposition must be transformable too: the transform
// hangs one leaf per edge off the single bag and prunes inner labels down to
// the intersections actually needed.
func TestTransformLeafNormalFormFromTrivialTD(t *testing.T) {
	h := example5()
	td := &TreeDecomposition{
		Tree: Tree{Parent: []int{-1}, Root: 0},
		Bags: [][]int{{0, 1, 2, 3, 4, 5}},
	}
	lnf := TransformLeafNormalForm(h, td)
	if err := lnf.TD.Validate(h); err != nil {
		t.Fatal(err)
	}
	if err := IsLeafNormalForm(h, lnf.TD, lnf.Leaf); err != nil {
		t.Fatal(err)
	}
	// Inner node keeps only variables on leaf-leaf paths: x2, x4, x6 occur
	// in a single edge each and must be pruned from the inner node.
	inner := lnf.TD.Bags[0]
	if len(lnf.TD.Bags) != 4 {
		t.Fatalf("expected 1 inner + 3 leaves, got %d nodes", len(lnf.TD.Bags))
	}
	for _, v := range []int{1, 3, 5} {
		if containsSorted(inner, v) {
			// Bags[0] may not be the inner node after compaction; find it.
			t.Logf("node 0 = %v", inner)
		}
	}
	for i, b := range lnf.TD.Bags {
		isLeaf := false
		for _, l := range lnf.Leaf {
			if l == i {
				isLeaf = true
			}
		}
		if !isLeaf {
			if !equalInts(b, []int{0, 2, 4}) {
				t.Fatalf("inner bag = %v, want [0 2 4]", b)
			}
		}
	}
}

func TestOrderingFromDecompositionIsPermutation(t *testing.T) {
	h := example5()
	order := OrderingFromDecomposition(h, example5TD())
	if len(order) != h.N() {
		t.Fatalf("ordering has %d entries", len(order))
	}
	seen := make([]bool, h.N())
	for _, v := range order {
		if v < 0 || v >= h.N() || seen[v] {
			t.Fatalf("not a permutation: %v", order)
		}
		seen[v] = true
	}
}

// Vertices with deeper dca are eliminated earlier: x2 lives only in leaf
// e0 (depth ≥ depth of inner nodes), so it must precede x1 (whose dca is
// the inner node).
func TestOrderingFromDecompositionDepthOrder(t *testing.T) {
	h := example5()
	order := OrderingFromDecomposition(h, example5TD())
	pos := make([]int, h.N())
	for i, v := range order {
		pos[v] = i
	}
	// x2 (1), x4 (3), x6 (5) occur in one edge each: their dca is that leaf.
	// x1 (0), x3 (2), x5 (4) occur in two edges: dca is an inner node.
	for _, leafOnly := range []int{1, 3, 5} {
		for _, shared := range []int{0, 2, 4} {
			if pos[leafOnly] > pos[shared] {
				t.Fatalf("vertex %d (leaf-only) eliminated after %d (shared): %v",
					leafOnly, shared, order)
			}
		}
	}
}

// The Figure 2.6 TD with leaves mapped to the matching hyperedges happens to
// already be in leaf normal form; IsLeafNormalForm must accept it.
func TestFigure26TDIsLNF(t *testing.T) {
	h := example5()
	td := example5TD()
	if err := IsLeafNormalForm(h, td, []int{1, 3, 2}); err != nil {
		t.Fatalf("Figure 2.6 TD should be in LNF: %v", err)
	}
}

func TestIsLeafNormalFormRejects(t *testing.T) {
	h := example5()
	td := example5TD()
	if err := IsLeafNormalForm(h, td, []int{0, 3, 2}); err == nil {
		t.Fatal("expected rejection: leaf bag doesn't equal its edge")
	}
	if err := IsLeafNormalForm(h, td, []int{1, 1, 2}); err == nil {
		t.Fatal("expected rejection: duplicate leaf")
	}
	if err := IsLeafNormalForm(h, td, []int{1, 2}); err == nil {
		t.Fatal("expected rejection: wrong mapping size")
	}
	// Inner label holding a variable off every leaf-leaf path.
	bad := &TreeDecomposition{
		Tree: Tree{Parent: []int{-1, 0, 0, 0}, Root: 0},
		Bags: [][]int{{0, 1, 2, 4}, {0, 1, 2}, {2, 3, 4}, {0, 4, 5}},
	}
	if err := IsLeafNormalForm(h, bad, []int{1, 3, 2}); err == nil {
		t.Fatal("expected rejection: inner label too large")
	}
}

// IsLeafNormalForm checks the two conditions of thesis Definition 18 for
// td with the given hyperedge-to-leaf mapping: the checker the leaf normal
// form tests (thesis Figs. 3.1–3.6) hold TransformLeafNormalForm to.
func IsLeafNormalForm(h *hypergraph.Hypergraph, td *TreeDecomposition, leafOf []int) error {
	n := len(td.Bags)
	children := td.Children()
	degree := make([]int, n)
	for i, p := range td.Parent {
		if p >= 0 {
			degree[i]++
			degree[p]++
		}
	}
	// Condition 1: one-to-one mapping onto the leaves, bags equal edges.
	if len(leafOf) != h.M() {
		return fmt.Errorf("decomp: mapping covers %d of %d edges", len(leafOf), h.M())
	}
	seen := make(map[int]struct{})
	for e, l := range leafOf {
		if l < 0 || l >= n {
			return fmt.Errorf("decomp: edge %d maps to invalid node %d", e, l)
		}
		if _, dup := seen[l]; dup {
			return fmt.Errorf("decomp: node %d is the image of two edges", l)
		}
		seen[l] = struct{}{}
		if n > 1 && degree[l] != 1 {
			return fmt.Errorf("decomp: node %d (edge %d) is not a leaf", l, e)
		}
		if !equalInts(td.Bags[l], h.Edge(e)) {
			return fmt.Errorf("decomp: leaf %d bag %v != edge %v", l, td.Bags[l], h.Edge(e))
		}
	}
	for i := 0; i < n; i++ {
		if n > 1 && degree[i] <= 1 {
			if _, ok := seen[i]; !ok {
				return fmt.Errorf("decomp: unmapped leaf %d", i)
			}
		}
	}
	// Condition 2: inner labels are exactly the Steiner paths.
	// Recompute the expected labels and compare.
	expect := make([]map[int]struct{}, n)
	for i := range expect {
		expect[i] = make(map[int]struct{})
	}
	post := make([]int, 0, n)
	var stack []int
	visited := make([]bool, n)
	stack = append(stack, td.Root)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		if !visited[v] {
			visited[v] = true
			stack = append(stack, children[v]...)
			continue
		}
		stack = stack[:len(stack)-1]
		post = append(post, v)
	}
	cnt := make([]int, n)
	for v := 0; v < h.N(); v++ {
		total := 0
		for i := range cnt {
			cnt[i] = 0
		}
		for _, e := range h.IncidentEdges(v) {
			cnt[leafOf[e]]++
			total++
		}
		if total == 0 {
			continue
		}
		for _, p := range post {
			for _, c := range children[p] {
				cnt[p] += cnt[c]
			}
		}
		for _, p := range post {
			if _, isL := seen[p]; isL {
				continue // mapped leaves are never internal nodes
			}
			branches := 0
			for _, c := range children[p] {
				if cnt[c] > 0 {
					branches++
				}
			}
			if total-cnt[p] > 0 {
				branches++
			}
			if branches >= 2 {
				expect[p][v] = struct{}{}
			}
		}
	}
	for p := 0; p < n; p++ {
		if _, isL := seen[p]; isL {
			continue
		}
		want := make([]int, 0, len(expect[p]))
		for v := range expect[p] {
			want = append(want, v)
		}
		sort.Ints(want)
		if !equalInts(td.Bags[p], want) {
			return fmt.Errorf("decomp: inner node %d label %v, expected %v", p, td.Bags[p], want)
		}
	}
	return nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

package decomp

import (
	"fmt"
	"sort"

	"hypertree/internal/hypergraph"
)

// LeafNormalForm is the result of the Transform Leaf Normal Form algorithm
// (thesis Figure 3.1): a tree decomposition in leaf normal form together
// with the one-to-one mapping from hyperedges to leaves.
type LeafNormalForm struct {
	TD *TreeDecomposition
	// Leaf[e] is the node index of the leaf created for hyperedge e;
	// its bag equals the hyperedge.
	Leaf []int
}

// TransformLeafNormalForm converts a valid tree decomposition of h into a
// tree decomposition in leaf normal form such that every new bag is a subset
// of some original bag (thesis Theorem 1). It panics if no bag contains some
// hyperedge (i.e. td is not a valid decomposition of h) and requires h to
// have at least one hyperedge.
func TransformLeafNormalForm(h *hypergraph.Hypergraph, td *TreeDecomposition) *LeafNormalForm {
	if h.M() == 0 {
		panic("decomp: leaf normal form requires at least one hyperedge")
	}
	// Mutable undirected tree: bags + adjacency sets.
	nOrig := len(td.Bags)
	bags := make([][]int, nOrig)
	for i, b := range td.Bags {
		bags[i] = append([]int(nil), b...)
	}
	adj := make([]map[int]struct{}, nOrig)
	for i := range adj {
		adj[i] = make(map[int]struct{})
	}
	for i, p := range td.Parent {
		if p >= 0 {
			adj[i][p] = struct{}{}
			adj[p][i] = struct{}{}
		}
	}

	// Step 2: attach one fresh leaf per hyperedge.
	isMappedLeaf := make([]bool, nOrig)
	leafOf := make([]int, h.M())
	for e := 0; e < h.M(); e++ {
		edge := h.Edge(e)
		attach := -1
		for i := 0; i < nOrig; i++ {
			if containsAll(bags[i], edge) {
				attach = i
				break
			}
		}
		if attach < 0 {
			panic(fmt.Sprintf("decomp: hyperedge %d not contained in any bag", e))
		}
		id := len(bags)
		bags = append(bags, append([]int(nil), edge...))
		adj = append(adj, map[int]struct{}{attach: {}})
		adj[attach][id] = struct{}{}
		isMappedLeaf = append(isMappedLeaf, true)
		leafOf[e] = id
	}

	// Step 3: repeatedly delete unmapped leaves.
	dead := make([]bool, len(bags))
	queue := make([]int, 0)
	for i := range bags {
		if !isMappedLeaf[i] && len(adj[i]) <= 1 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if dead[v] || isMappedLeaf[v] || len(adj[v]) > 1 {
			continue
		}
		dead[v] = true
		for u := range adj[v] {
			delete(adj[u], v)
			if !dead[u] && !isMappedLeaf[u] && len(adj[u]) <= 1 {
				queue = append(queue, u)
			}
		}
		adj[v] = nil
	}

	// Compact surviving nodes and root the tree at the first mapped leaf's
	// neighbor (or the leaf itself if it is the only node).
	newID := make([]int, len(bags))
	for i := range newID {
		newID[i] = -1
	}
	var survivors []int
	for i := range bags {
		if !dead[i] {
			newID[i] = len(survivors)
			survivors = append(survivors, i)
		}
	}
	root := leafOf[0]
	if len(adj[root]) > 0 {
		for u := range adj[root] {
			root = u
			break
		}
	}

	parent := make([]int, len(survivors))
	for i := range parent {
		parent[i] = -2 // unvisited
	}
	order := []int{root}
	parent[newID[root]] = -1
	for qi := 0; qi < len(order); qi++ {
		v := order[qi]
		for u := range adj[v] {
			if parent[newID[u]] == -2 {
				parent[newID[u]] = newID[v]
				order = append(order, u)
			}
		}
	}

	out := &TreeDecomposition{
		Tree: Tree{Parent: parent, Root: newID[root]},
		Bags: make([][]int, len(survivors)),
	}
	for i, old := range survivors {
		out.Bags[i] = bags[old]
	}
	mapped := make([]int, h.M())
	for e := range leafOf {
		mapped[e] = newID[leafOf[e]]
	}

	// Step 4: shrink inner labels to Steiner trees of the leaves.
	pruneInnerLabels(h, out, mapped)

	return &LeafNormalForm{TD: out, Leaf: mapped}
}

// pruneInnerLabels deletes variable Y from every internal node that does not
// lie on a path between two leaves whose labels contain Y (step 4 of the
// transform). Leaf labels are never altered.
func pruneInnerLabels(h *hypergraph.Hypergraph, td *TreeDecomposition, leafOf []int) {
	n := len(td.Bags)
	children := td.Children()
	isLeaf := make([]bool, n)
	for _, l := range leafOf {
		isLeaf[l] = true
	}
	// Post-order traversal sequence.
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

	keep := make([][]int, n)
	cnt := make([]int, n)
	for v := 0; v < h.N(); v++ {
		// Leaves whose hyperedge contains v.
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
		// Subtree counts bottom-up.
		for _, p := range post {
			for _, c := range children[p] {
				cnt[p] += cnt[c]
			}
		}
		for _, p := range post {
			if isLeaf[p] {
				if containsSorted(td.Bags[p], v) {
					keep[p] = append(keep[p], v)
				}
				continue
			}
			if !containsSorted(td.Bags[p], v) {
				continue
			}
			// Count branches around p holding a leaf with v.
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
				keep[p] = append(keep[p], v)
			}
		}
	}
	for p := 0; p < n; p++ {
		sort.Ints(keep[p])
		td.Bags[p] = keep[p]
	}
}

// OrderingFromLNF derives an elimination ordering from a tree decomposition
// in leaf normal form following thesis Lemma 13: compute, for every vertex,
// the depth of the deepest common ancestor of the leaves containing it, and
// eliminate vertices in order of descending depth. (The thesis writes
// orderings σ = (v1..vn) with v_n eliminated first; throughout this library
// an ordering lists vertices in elimination order, i.e. the reverse of σ,
// so deeper dca means earlier here.) Vertices in no hyperedge are placed
// last.
func OrderingFromLNF(h *hypergraph.Hypergraph, lnf *LeafNormalForm) []int {
	n := len(lnf.TD.Bags)
	depth := make([]int, n)
	for _, p := range bfsOrder(&lnf.TD.Tree) {
		if par := lnf.TD.Parent[p]; par >= 0 {
			depth[p] = depth[par] + 1
		}
	}
	vdepth := make([]int, h.N())
	for v := 0; v < h.N(); v++ {
		inc := h.IncidentEdges(v)
		if len(inc) == 0 {
			vdepth[v] = -1
			continue
		}
		dca := lnf.Leaf[inc[0]]
		for _, e := range inc[1:] {
			dca = commonAncestor(&lnf.TD.Tree, depth, dca, lnf.Leaf[e])
		}
		vdepth[v] = depth[dca]
	}
	sigma := make([]int, h.N())
	for i := range sigma {
		sigma[i] = i
	}
	sort.SliceStable(sigma, func(i, j int) bool {
		if vdepth[sigma[i]] != vdepth[sigma[j]] {
			return vdepth[sigma[i]] > vdepth[sigma[j]]
		}
		return sigma[i] < sigma[j]
	})
	return sigma
}

// OrderingFromDecomposition converts any valid tree decomposition of h into
// an elimination ordering whose induced decomposition is no wider (thesis
// Theorem 2 pipeline: leaf normal form, then dca ordering).
func OrderingFromDecomposition(h *hypergraph.Hypergraph, td *TreeDecomposition) []int {
	return OrderingFromLNF(h, TransformLeafNormalForm(h, td))
}

func bfsOrder(t *Tree) []int {
	children := t.Children()
	order := []int{t.Root}
	for qi := 0; qi < len(order); qi++ {
		order = append(order, children[order[qi]]...)
	}
	return order
}

func commonAncestor(t *Tree, depth []int, a, b int) int {
	for depth[a] > depth[b] {
		a = t.Parent[a]
	}
	for depth[b] > depth[a] {
		b = t.Parent[b]
	}
	for a != b {
		a = t.Parent[a]
		b = t.Parent[b]
	}
	return a
}

package hypergraph

// JoinTree is a join tree of a hypergraph: one node per hyperedge, with tree
// edges between nodes, satisfying the connectedness condition (for every
// vertex, the hyperedges containing it induce a subtree).
type JoinTree struct {
	// Parent[i] is the parent edge-index of hyperedge i, or -1 for the root.
	Parent []int
	// Root is the hyperedge index at the root.
	Root int
}

// IsAcyclic reports whether the hypergraph is α-acyclic, using the
// GYO (Graham / Yu–Özsoyoğlu) reduction: repeatedly remove vertices that
// occur in at most one edge and edges contained in other edges. The
// hypergraph is acyclic iff the reduction erases every edge.
func IsAcyclic(h *Hypergraph) bool {
	_, ok := BuildJoinTree(h)
	return ok
}

// BuildJoinTree attempts to build a join tree via GYO reduction. It returns
// (tree, true) when the hypergraph is α-acyclic and (nil, false) otherwise.
//
// During the reduction, when edge e becomes a subset of a live edge f, e is
// removed and attached as a child of f; the last surviving edge becomes the
// root. The connectedness condition holds by construction: an ear's private
// vertices occur nowhere else, and its shared vertices are all in its parent.
func BuildJoinTree(h *Hypergraph) (*JoinTree, bool) {
	m := h.M()
	if m == 0 {
		return &JoinTree{Parent: nil, Root: -1}, true
	}
	// Live copies of edges as sets.
	edges := make([]map[int]struct{}, m)
	for i := 0; i < m; i++ {
		s := make(map[int]struct{}, len(h.Edge(i)))
		for _, v := range h.Edge(i) {
			s[v] = struct{}{}
		}
		edges[i] = s
	}
	// occ[v] = number of live edges containing v.
	occ := make(map[int]int)
	for _, s := range edges {
		for v := range s {
			occ[v]++
		}
	}
	alive := make([]bool, m)
	for i := range alive {
		alive[i] = true
	}
	parent := make([]int, m)
	for i := range parent {
		parent[i] = -1
	}
	liveCount := m

	for {
		changed := false
		// Remove vertices occurring in exactly one live edge.
		for i := 0; i < m; i++ {
			if !alive[i] {
				continue
			}
			for v := range edges[i] {
				if occ[v] == 1 {
					delete(edges[i], v)
					delete(occ, v)
					changed = true
				}
			}
		}
		// Remove edges contained in another live edge (ears).
		for i := 0; i < m && liveCount > 1; i++ {
			if !alive[i] {
				continue
			}
			for j := 0; j < m; j++ {
				if i == j || !alive[j] {
					continue
				}
				if subsetOf(edges[i], edges[j]) {
					// Prefer attaching to the original (un-reduced) containing
					// edge for a cleaner tree; j works because reduction only
					// shrinks sets.
					alive[i] = false
					parent[i] = j
					for v := range edges[i] {
						occ[v]--
					}
					liveCount--
					changed = true
					break
				}
			}
		}
		if liveCount == 1 {
			root := -1
			for i := 0; i < m; i++ {
				if alive[i] {
					root = i
				}
			}
			// Path-compress parents onto live ancestry: parents recorded
			// during reduction always point to edges alive at that moment,
			// which may die later; walk up to the final structure.
			return &JoinTree{Parent: parent, Root: root}, true
		}
		if !changed {
			return nil, false
		}
	}
}

func subsetOf(a, b map[int]struct{}) bool {
	if len(a) > len(b) {
		return false
	}
	for v := range a {
		if _, ok := b[v]; !ok {
			return false
		}
	}
	return true
}

package decomp

// Compact returns td with every tree edge between nested bags contracted:
// where one bag of an edge contains the other, the two nodes become one
// node carrying the larger bag. The result decomposes every hypergraph td
// decomposes, at the same width; every bag of td lies inside one of its
// bags, and no tree edge of it joins nested bags (equal bags included). Its
// bags are td's own slices, not copies, and td itself is returned when no
// edge is nested. td must be a valid tree decomposition (see Validate).
//
// Compact is deterministic and runs in time linear in the size of td. One
// pass with a stamp array counts, for every node, the vertices its bag
// shares with its parent's. Two rounds then contract on those counts:
//
//   - every node whose bag lies inside its parent's is dropped, its
//     children passing to its nearest kept ancestor;
//   - every kept node whose bag lies inside a kept child's merges into the
//     first such child by index, which takes its place in the tree.
//
// Running intersection makes one count per node enough, and the rounds
// final. A kept child c of a kept ancestor a shares with a exactly what it
// shares with its own parent p, which lies inside a (bag_c ∩ bag_a ⊆ bag_p
// ⊆ bag_a). And a contraction nests no new edge: two bags that meet across
// a node x share only vertices of x, so a new pair nests only if one of
// them already nested on an edge to x. On a vertex-elimination
// decomposition only the second round contracts: a parent's bag holds all
// of its child's but the child's own vertex, and lies inside the child's
// exactly when it is one vertex smaller.
func (td *TreeDecomposition) Compact() *TreeDecomposition {
	n := len(td.Parent)
	if n <= 1 {
		return td
	}
	vertices := 0
	for _, b := range td.Bags {
		if len(b) > 0 && b[len(b)-1] >= vertices {
			vertices = b[len(b)-1] + 1
		}
	}
	// One scratch array: the children index (kids[start[p]:start[p+1]] are
	// p's children, ascending), the shared-vertex counts, the breadth-first
	// order, the nearest kept ancestor, the merge target, the surviving
	// node and its new index, and the vertex stamps.
	buf := make([]int32, 8*n+1+vertices)
	start, buf := buf[:n+1], buf[n+1:]
	kids, buf := buf[:n], buf[n:]
	shared, buf := buf[:n], buf[n:]
	order, buf := buf[:0:n], buf[n:]
	anc, buf := buf[:n], buf[n:]
	into, buf := buf[:n], buf[n:]
	rep, buf := buf[:n], buf[n:]
	idx, mark := buf[:n], buf[n:]
	for _, p := range td.Parent {
		if p >= 0 {
			start[p+1]++
		}
	}
	for p := 0; p < n; p++ {
		start[p+1] += start[p]
	}
	for i, p := range td.Parent {
		if p >= 0 {
			kids[start[p]] = int32(i)
			start[p]++
		}
	}
	copy(start[1:], start[:n])
	start[0] = 0
	// shared[c] = |bag_c ∩ bag_parent(c)|: each parent stamps its bag with
	// its own token, and its children count the stamped vertices.
	for p := 0; p < n; p++ {
		if start[p] == start[p+1] {
			continue
		}
		tok := int32(p + 1)
		for _, v := range td.Bags[p] {
			mark[v] = tok
		}
		for _, c := range kids[start[p]:start[p+1]] {
			k := int32(0)
			for _, v := range td.Bags[c] {
				if mark[v] == tok {
					k++
				}
			}
			shared[c] = k
		}
	}
	// Round one drops c when shared[c] == |bag_c|; anc is each node's
	// nearest kept proper ancestor, filled parents first.
	dropped := func(c int32) bool {
		return td.Parent[c] >= 0 && int(shared[c]) == len(td.Bags[c])
	}
	order = append(order, int32(td.Root))
	for i := 0; i < len(order); i++ {
		p := order[i]
		for _, c := range kids[start[p]:start[p+1]] {
			anc[c] = p
			if dropped(p) {
				anc[c] = anc[p]
			}
			order = append(order, c)
		}
	}
	// Round two merges a kept a into its first kept child c (by index) with
	// shared[c] == |bag_a|.
	for i := range into {
		into[i] = -1
	}
	gone := 0
	for c := int32(0); int(c) < n; c++ {
		if td.Parent[c] < 0 {
			continue
		}
		if dropped(c) {
			gone++
			continue
		}
		if a := anc[c]; into[a] < 0 && int(shared[c]) == len(td.Bags[a]) {
			into[a] = c
			gone++
		}
	}
	if gone == 0 {
		return td
	}
	// rep is the kept node whose bag a merged chain ends in, filled children
	// first; kept nodes that merge into no child survive, in index order.
	for i := len(order) - 1; i >= 0; i-- {
		if x := order[i]; into[x] >= 0 {
			rep[x] = rep[into[x]]
		} else {
			rep[x] = x
		}
	}
	out := &TreeDecomposition{Bags: make([][]int, 0, n-gone)}
	for x := 0; x < n; x++ {
		if into[x] < 0 && !dropped(int32(x)) {
			idx[x] = int32(len(out.Bags))
			out.Bags = append(out.Bags, td.Bags[x])
		}
	}
	out.Parent = make([]int, len(out.Bags))
	out.Root = int(idx[rep[td.Root]])
	out.Parent[out.Root] = -1
	// A chain's top node hangs the survivor under its kept parent's
	// survivor; nodes lower in a chain are their kept parent's merge target.
	for x := int32(0); int(x) < n; x++ {
		if td.Parent[x] < 0 || dropped(x) {
			continue
		}
		if a := anc[x]; into[a] != x {
			out.Parent[idx[rep[x]]] = int(idx[rep[a]])
		}
	}
	return out
}

// Package decomp defines tree decompositions and generalized hypertree
// decompositions (GHDs), their validity checks, and the Chapter 3 machinery
// of the thesis: the leaf normal form for tree decompositions and the
// extraction of elimination orderings from decompositions via deepest common
// ancestors, which together prove that elimination orderings form a complete
// search space for generalized hypertree width.
package decomp

import (
	"fmt"
	"math/rand"
	"sort"

	"hypertree/internal/hypergraph"
	"hypertree/internal/setcover"
)

// Tree is a rooted tree given by a parent array: Parent[i] is the parent of
// node i, or -1 for the root.
type Tree struct {
	Parent []int
	Root   int
}

// Children returns the children lists of every node.
func (t *Tree) Children() [][]int {
	ch := make([][]int, len(t.Parent))
	for i, p := range t.Parent {
		if p >= 0 {
			ch[p] = append(ch[p], i)
		}
	}
	return ch
}

// Validate checks that the parent array describes a single rooted tree.
func (t *Tree) Validate() error {
	n := len(t.Parent)
	if n == 0 {
		return fmt.Errorf("decomp: empty tree")
	}
	if t.Root < 0 || t.Root >= n {
		return fmt.Errorf("decomp: root %d out of range", t.Root)
	}
	if t.Parent[t.Root] != -1 {
		return fmt.Errorf("decomp: root %d has parent %d", t.Root, t.Parent[t.Root])
	}
	for i := 0; i < n; i++ {
		if i == t.Root {
			continue
		}
		if t.Parent[i] < 0 || t.Parent[i] >= n {
			return fmt.Errorf("decomp: node %d has invalid parent %d", i, t.Parent[i])
		}
	}
	// Single pass over parent chains with memoized reachability: state[v]
	// is unknown, on the current chain, or proven to reach the root. Each
	// node's chain link is traversed once overall, so validation is O(n)
	// even on a path tree (the old per-node walk was quadratic there).
	const (
		unknown = iota
		onChain
		reachesRoot
	)
	state := make([]uint8, n)
	state[t.Root] = reachesRoot
	chain := make([]int, 0, 16)
	for i := 0; i < n; i++ {
		v := i
		chain = chain[:0]
		for state[v] == unknown {
			state[v] = onChain
			chain = append(chain, v)
			v = t.Parent[v]
		}
		if state[v] == onChain {
			return fmt.Errorf("decomp: cycle through node %d", v)
		}
		for _, u := range chain {
			state[u] = reachesRoot
		}
	}
	return nil
}

// TreeDecomposition is a tree decomposition ⟨T, χ⟩ of a hypergraph: a rooted
// tree whose node i carries the bag Bags[i] (sorted vertex ids).
type TreeDecomposition struct {
	Tree
	Bags [][]int
}

// Width returns max |bag| - 1 (thesis Definition 11).
func (td *TreeDecomposition) Width() int {
	w := -1
	for _, b := range td.Bags {
		if len(b)-1 > w {
			w = len(b) - 1
		}
	}
	return w
}

// Validate checks the two tree-decomposition conditions against h:
// every hyperedge is contained in some bag, and for every vertex the bags
// containing it induce a connected subtree. It also checks tree shape and
// bag sanity. It runs in time linear in the size of the tree, the bags and
// h: both conditions read one vertex → nodes occurrence index, built in one
// pass over the bags, and mark nodes in a stamp array instead of building a
// set per vertex.
func (td *TreeDecomposition) Validate(h *hypergraph.Hypergraph) error {
	_, err := td.validate(h)
	return err
}

// validate is Validate, also returning the stamp scratch so GHD.Validate
// can reuse it.
func (td *TreeDecomposition) validate(h *hypergraph.Hypergraph) (*stamps, error) {
	if err := td.Tree.Validate(); err != nil {
		return nil, err
	}
	if len(td.Bags) != len(td.Parent) {
		return nil, fmt.Errorf("decomp: %d bags for %d nodes", len(td.Bags), len(td.Parent))
	}
	for i, b := range td.Bags {
		for j, v := range b {
			if v < 0 || v >= h.N() {
				return nil, fmt.Errorf("decomp: bag %d contains invalid vertex %d", i, v)
			}
			if j > 0 && b[j-1] >= v {
				return nil, fmt.Errorf("decomp: bag %d is not strictly sorted", i)
			}
		}
	}
	occ := newOccurrence(h.N(), td.Bags)
	st := newStamps(len(td.Bags), h.N())
	// Condition 1: each hyperedge inside some bag. Bags hold no repeated
	// vertex, so a node that counts every vertex of the edge contains it;
	// only nodes holding some vertex of the edge are ever counted.
	for e := 0; e < h.M(); e++ {
		edge := h.Edge(e)
		if !occ.containsEdge(edge, st) {
			return nil, fmt.Errorf("decomp: hyperedge %d (%v) not contained in any bag", e, edge)
		}
	}
	// Condition 2 (connectedness): for each vertex, nodes whose bag contains
	// it must induce a subtree. Count nodes in S whose parent is also in S;
	// a subtree has exactly |S|-1 of them.
	for v := 0; v < h.N(); v++ {
		s := occ.of(v)
		if len(s) == 0 {
			continue
		}
		tok := st.next()
		for _, i := range s {
			st.node[i] = tok
		}
		withParent := 0
		for _, i := range s {
			if p := td.Parent[i]; p >= 0 && st.node[p] == tok {
				withParent++
			}
		}
		if withParent != len(s)-1 {
			nodes := make([]int, len(s))
			for k, i := range s {
				nodes[k] = int(i)
			}
			return nil, fmt.Errorf("decomp: vertex %d violates connectedness (nodes %v)", v, nodes)
		}
	}
	return st, nil
}

// occurrence is the vertex → nodes index of a tree decomposition: the nodes
// whose bag holds v are nodes[start[v]:start[v+1]], ascending. Built in one
// counting pass over the bags, O(n + Σ|bag|), in two allocations.
type occurrence struct {
	start []int32
	nodes []int32
}

// newOccurrence indexes bags over vertices 0..n-1; every bag vertex must be
// in range.
func newOccurrence(n int, bags [][]int) occurrence {
	start := make([]int32, n+1)
	total := 0
	for _, b := range bags {
		for _, v := range b {
			start[v+1]++
		}
		total += len(b)
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	nodes := make([]int32, total)
	// Fill by advancing start[v] as a cursor, then shift the cursors back
	// into starts.
	for i, b := range bags {
		for _, v := range b {
			nodes[start[v]] = int32(i)
			start[v]++
		}
	}
	copy(start[1:], start[:n])
	start[0] = 0
	return occurrence{start: start, nodes: nodes}
}

func (o occurrence) of(v int) []int32 { return o.nodes[o.start[v]:o.start[v+1]] }

// containsEdge reports whether some bag contains every vertex of edge: it
// counts, per node, the edge vertices the node holds, and stops at the
// first node that holds them all.
func (o occurrence) containsEdge(edge []int, st *stamps) bool {
	if len(edge) == 0 {
		return true // the tree has a node, and every bag contains ∅
	}
	tok := st.next()
	for _, v := range edge {
		for _, i := range o.of(v) {
			if st.node[i] != tok {
				st.node[i], st.count[i] = tok, 0
			}
			st.count[i]++
			if int(st.count[i]) == len(edge) {
				return true
			}
		}
	}
	return false
}

// stamps is the validators' marking scratch: a per-node and a per-vertex
// stamp array, cleared in O(1) by drawing a fresh token, and a per-node
// counter that is valid while the node carries the current token.
type stamps struct {
	node, count, vertex []int32
	tok                 int32
}

func newStamps(nodes, vertices int) *stamps {
	buf := make([]int32, 2*nodes+vertices)
	return &stamps{node: buf[:nodes], count: buf[nodes : 2*nodes], vertex: buf[2*nodes:]}
}

func (st *stamps) next() int32 {
	st.tok++
	return st.tok
}

// GHD is a generalized hypertree decomposition ⟨T, χ, λ⟩: a tree
// decomposition plus, per node, a set of hyperedge indices Lambdas[i] whose
// union covers the node's bag.
type GHD struct {
	TreeDecomposition
	Lambdas [][]int
}

// Width returns max |λ(p)| (thesis Definition 13).
func (g *GHD) Width() int {
	w := 0
	for _, l := range g.Lambdas {
		if len(l) > w {
			w = len(l)
		}
	}
	return w
}

// Validate checks the three GHD conditions: the underlying structure is a
// valid tree decomposition, and for every node p, χ(p) ⊆ var(λ(p)). It is
// linear in the size of the decomposition and h (see
// TreeDecomposition.Validate): each node marks the vertices its λ-set
// covers with a fresh stamp, then reads the stamp of every bag vertex. A GHD
// built on a tree decomposition's own tree and bags (core's exit does this)
// is checked in full by this one call.
func (g *GHD) Validate(h *hypergraph.Hypergraph) error {
	st, err := g.TreeDecomposition.validate(h)
	if err != nil {
		return err
	}
	if len(g.Lambdas) != len(g.Bags) {
		return fmt.Errorf("decomp: %d lambda sets for %d nodes", len(g.Lambdas), len(g.Bags))
	}
	covered := st.vertex
	for i, l := range g.Lambdas {
		tok := st.next()
		for _, e := range l {
			if e < 0 || e >= h.M() {
				return fmt.Errorf("decomp: node %d references invalid hyperedge %d", i, e)
			}
			for _, v := range h.Edge(e) {
				covered[v] = tok
			}
		}
		for _, v := range g.Bags[i] {
			if covered[v] != tok {
				return fmt.Errorf("decomp: node %d: vertex %d in χ not covered by λ", i, v)
			}
		}
	}
	return nil
}

// IsComplete reports whether g is a complete GHD (thesis Definition 14):
// for each hyperedge h there is a node p with h ⊆ χ(p) and h ∈ λ(p). It is
// linear in the size of the decomposition and h: each node stamps its bag's
// vertices, and only the edges of its own λ-set are tested against the
// stamp. Out-of-range λ entries and bag vertices witness nothing.
func (g *GHD) IsComplete(h *hypergraph.Hypergraph) bool {
	n, m := h.N(), h.M()
	witnessed := make([]bool, m)
	left := m
	inBag := make([]int32, n)
	for i, bag := range g.Bags {
		if i >= len(g.Lambdas) {
			break
		}
		tok := int32(i + 1)
		for _, v := range bag {
			if v >= 0 && v < n {
				inBag[v] = tok
			}
		}
	lambda:
		for _, e := range g.Lambdas[i] {
			if e < 0 || e >= m || witnessed[e] {
				continue
			}
			for _, v := range h.Edge(e) {
				if inBag[v] != tok {
					continue lambda
				}
			}
			witnessed[e] = true
			left--
		}
	}
	return left == 0
}

// Complete transforms g into a complete GHD of the same width (for width
// >= 1) following thesis Lemma 2: for every hyperedge without a witnessing
// node, a fresh child node with χ = h and λ = {h} is attached to a node
// whose bag contains h. g is modified in place.
func (g *GHD) Complete(h *hypergraph.Hypergraph) {
	for e := 0; e < h.M(); e++ {
		edge := h.Edge(e)
		witnessed := false
		attach := -1
		for i := range g.Bags {
			if !containsAll(g.Bags[i], edge) {
				continue
			}
			if attach < 0 {
				attach = i
			}
			for _, le := range g.Lambdas[i] {
				if le == e {
					witnessed = true
					break
				}
			}
			if witnessed {
				break
			}
		}
		if witnessed {
			continue
		}
		if attach < 0 {
			// Cannot happen on a valid GHD; guard for misuse.
			panic(fmt.Sprintf("decomp: Complete on invalid GHD (edge %d uncontained)", e))
		}
		bag := append([]int(nil), edge...)
		sort.Ints(bag)
		g.Bags = append(g.Bags, bag)
		g.Lambdas = append(g.Lambdas, []int{e})
		g.Parent = append(g.Parent, attach)
	}
}

// CoverMode selects how bags are covered by hyperedges when building a GHD
// from a tree decomposition.
type CoverMode int

const (
	// CoverGreedy uses the greedy set-cover heuristic (thesis Figure 7.2).
	CoverGreedy CoverMode = iota
	// CoverExact computes minimum covers exactly (thesis: IP solver;
	// here: branch-and-bound).
	CoverExact
)

// FromTreeDecompositionWithEngine builds a GHD on td's own tree and bags
// (shared, not copied; callers must not modify them in place) by covering
// every bag with hyperedges, using eng, a cover engine for the hypergraph,
// so the searches can reuse the engine (and its warmed-up memo cache) they
// already evaluated bags with; the engine restricts each bag's candidates
// to its incident hyperedges. With CoverExact the resulting width is the
// best achievable for this tree decomposition's bags. rng is used for
// greedy tie breaking and may be nil. It returns an error if some bag is
// uncoverable (possible only if the hypergraph does not cover all its
// vertices).
func FromTreeDecompositionWithEngine(eng *setcover.Engine, td *TreeDecomposition, mode CoverMode, rng *rand.Rand) (*GHD, error) {
	np, nb := len(td.Parent), len(td.Bags)
	g := &GHD{
		// The GHD shares td's tree and bags rather than copying them, so one
		// GHD.Validate checks everything both expose. The capacities are
		// clipped: Complete's appends then reallocate and never reach td.
		TreeDecomposition: TreeDecomposition{
			Tree: Tree{Parent: td.Parent[:np:np], Root: td.Root},
			Bags: td.Bags[:nb:nb],
		},
		Lambdas: make([][]int, nb),
	}
	sc := eng.NewScratch()
	for i, b := range td.Bags {
		var cover []int
		if mode == CoverExact {
			cover, _ = eng.ExactCover(sc, b, nil)
		} else {
			cover = eng.GreedyCover(sc, b, rng)
		}
		if cover == nil {
			return nil, fmt.Errorf("decomp: bag %d (%v) not coverable by hyperedges", i, b)
		}
		g.Lambdas[i] = cover
	}
	return g, nil
}

func containsSorted(sorted []int, v int) bool {
	i := sort.SearchInts(sorted, v)
	return i < len(sorted) && sorted[i] == v
}

func containsAll(sorted, subset []int) bool {
	for _, v := range subset {
		if !containsSorted(sorted, v) {
			return false
		}
	}
	return true
}

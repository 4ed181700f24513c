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
// bag sanity.
func (td *TreeDecomposition) Validate(h *hypergraph.Hypergraph) error {
	if err := td.Tree.Validate(); err != nil {
		return err
	}
	if len(td.Bags) != len(td.Parent) {
		return fmt.Errorf("decomp: %d bags for %d nodes", len(td.Bags), len(td.Parent))
	}
	for i, b := range td.Bags {
		for j, v := range b {
			if v < 0 || v >= h.N() {
				return fmt.Errorf("decomp: bag %d contains invalid vertex %d", i, v)
			}
			if j > 0 && b[j-1] >= v {
				return fmt.Errorf("decomp: bag %d is not strictly sorted", i)
			}
		}
	}
	// Condition 1: each hyperedge inside some bag.
	for e := 0; e < h.M(); e++ {
		edge := h.Edge(e)
		found := false
		for _, b := range td.Bags {
			if containsAll(b, edge) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("decomp: hyperedge %d (%v) not contained in any bag", e, edge)
		}
	}
	// Condition 2 (connectedness): for each vertex, nodes whose bag contains
	// it must induce a subtree. Count nodes in S whose parent is also in S;
	// a subtree has exactly |S|-1 of them.
	for v := 0; v < h.N(); v++ {
		var s []int
		for i, b := range td.Bags {
			if containsSorted(b, v) {
				s = append(s, i)
			}
		}
		if len(s) == 0 {
			continue
		}
		inS := make(map[int]struct{}, len(s))
		for _, i := range s {
			inS[i] = struct{}{}
		}
		withParent := 0
		for _, i := range s {
			if p := td.Parent[i]; p >= 0 {
				if _, ok := inS[p]; ok {
					withParent++
				}
			}
		}
		if withParent != len(s)-1 {
			return fmt.Errorf("decomp: vertex %d violates connectedness (nodes %v)", v, s)
		}
	}
	return nil
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
// valid tree decomposition, and for every node p, χ(p) ⊆ var(λ(p)).
func (g *GHD) Validate(h *hypergraph.Hypergraph) error {
	if err := g.TreeDecomposition.Validate(h); err != nil {
		return err
	}
	if len(g.Lambdas) != len(g.Bags) {
		return fmt.Errorf("decomp: %d lambda sets for %d nodes", len(g.Lambdas), len(g.Bags))
	}
	for i, l := range g.Lambdas {
		covered := make(map[int]struct{})
		for _, e := range l {
			if e < 0 || e >= h.M() {
				return fmt.Errorf("decomp: node %d references invalid hyperedge %d", i, e)
			}
			for _, v := range h.Edge(e) {
				covered[v] = struct{}{}
			}
		}
		for _, v := range g.Bags[i] {
			if _, ok := covered[v]; !ok {
				return fmt.Errorf("decomp: node %d: vertex %d in χ not covered by λ", i, v)
			}
		}
	}
	return nil
}

// IsComplete reports whether g is a complete GHD (thesis Definition 14):
// for each hyperedge h there is a node p with h ⊆ χ(p) and h ∈ λ(p).
func (g *GHD) IsComplete(h *hypergraph.Hypergraph) bool {
	for e := 0; e < h.M(); e++ {
		edge := h.Edge(e)
		found := false
		for i := range g.Bags {
			if !containsAll(g.Bags[i], edge) {
				continue
			}
			for _, le := range g.Lambdas[i] {
				if le == e {
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
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

// FromTreeDecompositionWithEngine builds a GHD on the same tree by covering
// every bag with hyperedges, using eng, a cover engine for the hypergraph,
// so the searches can reuse the engine (and its warmed-up memo cache) they
// already evaluated bags with; the engine restricts each bag's candidates
// to its incident hyperedges. With CoverExact the resulting width is the
// best achievable for this tree decomposition's bags. rng is used for
// greedy tie breaking and may be nil. It returns an error if some bag is
// uncoverable (possible only if the hypergraph does not cover all its
// vertices).
func FromTreeDecompositionWithEngine(eng *setcover.Engine, td *TreeDecomposition, mode CoverMode, rng *rand.Rand) (*GHD, error) {
	g := &GHD{
		TreeDecomposition: TreeDecomposition{
			Tree: Tree{Parent: append([]int(nil), td.Parent...), Root: td.Root},
			Bags: make([][]int, len(td.Bags)),
		},
		Lambdas: make([][]int, len(td.Bags)),
	}
	sc := eng.NewScratch()
	for i, b := range td.Bags {
		g.Bags[i] = append([]int(nil), b...)
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

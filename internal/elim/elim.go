// Package elim implements elimination orderings and vertex elimination
// (thesis Figure 2.12), which turns an ordering into a tree decomposition
// (the tests check it against the equivalent bucket elimination of Figure
// 2.10), plus the fast width evaluators used by the genetic algorithms
// (Figures 6.2 and 7.1) and the min-fill ordering heuristic.
//
// Ordering convention: everywhere in this library an ordering lists vertices
// in the order they are eliminated (position 0 first). The thesis writes
// σ = (v1..vn) with v_n eliminated first; its σ is the reverse of ours.
package elim

import (
	"fmt"
	"math/rand"
	"slices"

	"hypertree/internal/budget"
	"hypertree/internal/budget/faultinject"
	"hypertree/internal/decomp"
	"hypertree/internal/elimgraph"
	"hypertree/internal/hypergraph"
	"hypertree/internal/setcover"
)

// Validate checks that order is a permutation of 0..n-1.
func Validate(order []int, n int) error {
	if len(order) != n {
		return fmt.Errorf("elim: ordering has %d entries for %d vertices", len(order), n)
	}
	seen := make([]bool, n)
	for _, v := range order {
		if v < 0 || v >= n {
			return fmt.Errorf("elim: vertex %d out of range", v)
		}
		if seen[v] {
			return fmt.Errorf("elim: vertex %d repeated", v)
		}
		seen[v] = true
	}
	return nil
}

// Width returns the width of the tree decomposition induced by eliminating
// the vertices of g's primal graph in the given order: the maximum live
// degree at elimination time (thesis Figure 6.2). It uses the early exit
// "stop once the width cannot grow further" from the thesis.
func Width(e *elimgraph.ElimGraph, order []int) int {
	defer e.Reset()
	width := 0
	for _, v := range order {
		if width >= e.Live()-1 {
			break // no remaining clique can exceed the current width
		}
		if d := e.Eliminate(v); d > width {
			width = d
		}
	}
	return width
}

// WidthOfGraph evaluates Width on a fresh elimination graph for g.
func WidthOfGraph(g *hypergraph.Graph, order []int) int {
	return Width(elimgraph.New(g), order)
}

// GHWEvaluator evaluates the generalized-hypertree width of orderings of a
// fixed hypergraph (thesis Figure 7.1). It owns a reusable elimination
// graph of the primal graph and a per-evaluator cover scratch; bag covers
// are solved by a shared setcover.Engine, whose memo cache makes repeated
// bags (sibling search states, GA generations) near-free. A single
// evaluator is not safe for concurrent use, but any number of evaluators
// may share one engine across goroutines.
type GHWEvaluator struct {
	H     *hypergraph.Hypergraph
	E     *elimgraph.ElimGraph
	Exact bool // exact set covers instead of greedy
	Rng   *rand.Rand
	// Cap, when positive, lets exact covers stop early: a bag needing Cap
	// or more edges reports exactly Cap. The exact searches set Cap to the
	// current upper bound, where any such bag is pruned anyway; this keeps
	// the per-bag set-cover search polynomial in practice.
	Cap int
	// Budget, when non-nil, bounds the exact cover searches: one the budget
	// cuts reports the cap, as if the bag were too wide to keep. Only a
	// caller that stops on the same budget may set it, since a cut size is
	// not a bound.
	Budget *budget.B

	eng *setcover.Engine
	sc  *setcover.Scratch
	bag []int
}

// NewGHWEvaluator builds an evaluator with its own cover engine; rng (for
// greedy tie-breaking) may be nil for deterministic lowest-index ties.
func NewGHWEvaluator(h *hypergraph.Hypergraph, exact bool, rng *rand.Rand) *GHWEvaluator {
	return NewGHWEvaluatorWithEngine(setcover.NewEngine(h, setcover.DefaultCacheCapacity), exact, rng)
}

// NewGHWEvaluatorWithEngine builds an evaluator on an existing cover
// engine, sharing its memo cache with every other evaluator on the same
// engine (e.g. the per-island evaluators of SAIGA, or a search and its
// bound evaluators).
func NewGHWEvaluatorWithEngine(eng *setcover.Engine, exact bool, rng *rand.Rand) *GHWEvaluator {
	h := eng.Hypergraph()
	return &GHWEvaluator{
		H:     h,
		E:     elimgraph.FromHypergraph(h),
		Exact: exact,
		Rng:   rng,
		eng:   eng,
		sc:    eng.NewScratch(),
	}
}

// Engine returns the evaluator's cover engine (to share it with further
// evaluators, or to read its cache statistics).
func (ev *GHWEvaluator) Engine() *setcover.Engine { return ev.eng }

// CoverCacheStats reports the shared engine's bag-cover cache counters.
func (ev *GHWEvaluator) CoverCacheStats() setcover.CacheStats { return ev.eng.CacheStats() }

// Width returns the generalized hypertree width of the decomposition induced
// by the ordering: the maximum, over elimination cliques, of the number of
// hyperedges needed to cover the clique. Returns -1 if some bag is
// uncoverable (possible only when h leaves vertices uncovered).
func (ev *GHWEvaluator) Width(order []int) int {
	defer ev.E.Reset()
	width := 0
	for _, v := range order {
		if width >= ev.E.Live() {
			break // a bag of ≤ width vertices needs ≤ width covering edges
		}
		ev.bag = append(ev.E.Neighbors(v, ev.bag[:0]), v)
		k := ev.coverSize(ev.bag)
		if k < 0 {
			return -1
		}
		if k > width {
			width = k
		}
		ev.E.Eliminate(v)
	}
	return width
}

// BagCost returns the number of hyperedges needed to cover the bag that
// eliminating v from the *current* graph state would create ({v} ∪ live
// neighbors), without eliminating v. Used by the ghw search algorithms.
func (ev *GHWEvaluator) BagCost(v int) int {
	ev.bag = append(ev.E.Neighbors(v, ev.bag[:0]), v)
	return ev.coverSize(ev.bag)
}

// coverSize covers bag with hyperedges of ev.H through the shared engine
// (which restricts candidates to edges incident to the bag and memoizes by
// bag) and returns the cover size, or -1 if uncoverable.
func (ev *GHWEvaluator) coverSize(bag []int) int {
	faultinject.Hit(faultinject.SiteCover)
	if ev.Exact {
		if ev.Cap > 0 {
			return ev.eng.ExactSizeCapped(ev.sc, bag, ev.Cap, ev.Budget)
		}
		// A coverable bag always has a cover of at most len(bag) edges, so
		// this cap never censors: the result is the exact minimum.
		return ev.eng.ExactSizeCapped(ev.sc, bag, len(bag)+1, ev.Budget)
	}
	return ev.eng.GreedySize(ev.sc, bag, ev.Rng)
}

// TDFromOrdering builds the tree decomposition produced by vertex
// elimination (thesis Figure 2.12): one node per vertex, node(v)'s bag is
// {v} ∪ N_live(v) at v's elimination, and node(v)'s parent is the node of
// the first-eliminated live neighbor. Nodes with no live neighbors chain to
// the next node in elimination order so that the result is a single tree.
// The elimination graph is built straight from h's hyperedges and every
// bag is cut from one array; Parent and Bags have no spare capacity, so a
// GHD that appends nodes to them (decomp.GHD.Complete) reallocates instead
// of writing into this decomposition.
func TDFromOrdering(h *hypergraph.Hypergraph, order []int) *decomp.TreeDecomposition {
	if err := Validate(order, h.N()); err != nil {
		panic(err)
	}
	n := h.N()
	if n == 0 {
		panic("elim: empty hypergraph")
	}
	e := elimgraph.FromHypergraph(h)
	pos := make([]int, n) // pos[v] = elimination position
	for i, v := range order {
		pos[v] = i
	}
	// The bags are appended to flat and sliced off once it stops growing,
	// since an append may move it. Each primal edge lands in the bag of its
	// first-eliminated end, so n plus the total degree is a fair first size.
	size := n
	for v := 0; v < n; v++ {
		size += e.Degree(v)
	}
	flat := make([]int, 0, size)
	ends := make([]int, n)
	parent := make([]int, n)
	var buf []int
	for i, v := range order {
		ns := e.Neighbors(v, buf)
		buf = ns
		start := len(flat)
		flat = append(append(flat, ns...), v)
		slices.Sort(flat[start:])
		ends[i] = len(flat)
		// Parent: earliest-eliminated live neighbor.
		next := -1
		for _, u := range ns {
			if next < 0 || pos[u] < next {
				next = pos[u]
			}
		}
		if next < 0 {
			if i+1 < n {
				next = i + 1 // chain isolated roots
			} else {
				next = -1 // overall root
			}
		}
		parent[i] = next
		e.Eliminate(v)
	}
	bags := make([][]int, n)
	start := 0
	for i, end := range ends {
		bags[i] = flat[start:end:end]
		start = end
	}
	return &decomp.TreeDecomposition{
		Tree: decomp.Tree{Parent: parent, Root: n - 1},
		Bags: bags,
	}
}

// GHDFromOrdering builds a generalized hypertree decomposition from an
// ordering: the vertex-elimination tree decomposition with every bag covered
// by hyperedges (thesis §2.5.2). exact selects exact covers (the optimal
// decomposition for this ordering, per Theorem 3) versus greedy covers.
//
// test-only: the reference GHD of the elim, csp, csp/engine and core tests;
// core's exit (exitGHD) must keep the λ-sets it picks with exact covers.
func GHDFromOrdering(h *hypergraph.Hypergraph, order []int, exact bool, rng *rand.Rand) (*decomp.GHD, error) {
	td := TDFromOrdering(h, order)
	mode := decomp.CoverGreedy
	if exact {
		mode = decomp.CoverExact
	}
	return decomp.FromTreeDecompositionWithEngine(setcover.NewEngine(h, 0), td, mode, rng)
}

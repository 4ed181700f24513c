package elim

import (
	"math/rand"

	"hypertree/internal/budget"
	"hypertree/internal/elimgraph"
	"hypertree/internal/hypergraph"
)

// MinFillOrdering returns an elimination ordering built by repeatedly
// eliminating a vertex that adds the fewest fill edges (thesis §4.4.2,
// "min-fill heuristic"; ties broken by rng, or lowest index when rng is
// nil). This is the upper-bound heuristic used by QuickBB and A*-tw.
func MinFillOrdering(g *hypergraph.Graph, rng *rand.Rand) []int {
	return greedyOrdering(elimgraph.New(g), rng, nil, (*elimgraph.ElimGraph).FillCount)
}

// MinFillOrderingBudget is MinFillOrdering on h's primal graph, built
// straight from the hyperedges (elimgraph.FromHypergraph, equal to
// elimgraph.New(h.PrimalGraph()), so the ordering is the same for the same
// rng), under a run budget: one work unit per eliminated vertex. On budget
// exhaustion the greedy choice degrades to index order for the remaining
// vertices, so the result is always a complete, valid ordering (just a
// weaker one). A nil b never stops.
func MinFillOrderingBudget(h *hypergraph.Hypergraph, rng *rand.Rand, b *budget.B) []int {
	return greedyOrdering(elimgraph.FromHypergraph(h), rng, b, (*elimgraph.ElimGraph).FillCount)
}

// greedyOrdering eliminates all vertices, always choosing a minimizer of
// score among live vertices, with reservoir tie-breaking when rng != nil.
// A stopped budget short-circuits the remaining greedy choices to index
// order; the returned ordering is complete either way.
func greedyOrdering(e *elimgraph.ElimGraph, rng *rand.Rand, b *budget.B, score func(*elimgraph.ElimGraph, int) int) []int {
	n := e.N()
	order := make([]int, 0, n)
	var live []int
	for len(order) < n {
		if !b.Tick() {
			// Budget exhausted: complete the permutation without scoring.
			for v := 0; v < n; v++ {
				if !e.Eliminated(v) {
					order = append(order, v)
				}
			}
			break
		}
		live = e.LiveVertices(live)
		best, bestScore, ties := -1, 0, 0
		for _, v := range live {
			s := score(e, v)
			switch {
			case best < 0 || s < bestScore:
				best, bestScore, ties = v, s, 1
			case s == bestScore:
				ties++
				if rng != nil && rng.Intn(ties) == 0 {
					best = v
				}
			}
		}
		e.Eliminate(best)
		order = append(order, best)
	}
	e.Reset()
	return order
}

// ExhaustiveTreewidth computes the exact treewidth of g's hypergraph by
// evaluating every elimination ordering. Only feasible for tiny graphs
// (n ≤ ~9).
//
// test-only: the exact treewidth oracle of the elim, bounds, ga, reduce and
// search tests.
func ExhaustiveTreewidth(g *hypergraph.Graph) int {
	e := elimgraph.New(g)
	best := g.N() // upper bound: width ≤ n-1 always
	perm := make([]int, g.N())
	for i := range perm {
		perm[i] = i
	}
	var rec func(k, width int)
	rec = func(k, width int) {
		if width >= best {
			return // cannot improve
		}
		if k == len(perm) {
			best = width
			return
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			d := e.Eliminate(perm[k])
			w := width
			if d > w {
				w = d
			}
			rec(k+1, w)
			e.Restore()
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0, 0)
	return best
}

// ExhaustiveGHW computes the exact generalized hypertree width of h by
// branch-and-bound over elimination orderings with exact set covers. By
// thesis Theorem 3 the optimum over orderings equals ghw(h). Only feasible
// for tiny hypergraphs.
//
// test-only: the exact ghw oracle of the elim, bounds, htd and search tests.
func ExhaustiveGHW(h *hypergraph.Hypergraph) int {
	if !h.CoversAllVertices() {
		return -1
	}
	ev := NewGHWEvaluator(h, true, nil)
	n := h.N()
	if n == 0 {
		return 0
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := n + 1 // ghw ≤ n trivially (one edge per vertex in one bag)
	var bag []int
	var rec func(k, width int)
	rec = func(k, width int) {
		if width >= best {
			return
		}
		// Remaining bags have at most Live() vertices, hence covers of size
		// at most Live(): once width reaches that, deeper search can't grow.
		if k == n || width >= ev.E.Live() {
			if width < best {
				best = width
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			v := perm[k]
			bag = append(ev.E.Neighbors(v, bag[:0]), v)
			cw := ev.coverSize(bag)
			w := width
			if cw > w {
				w = cw
			}
			if w < best {
				ev.E.Eliminate(v)
				rec(k+1, w)
				ev.E.Restore()
			}
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0, 0)
	ev.E.Reset()
	return best
}

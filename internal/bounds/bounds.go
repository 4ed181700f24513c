// Package bounds implements the lower- and upper-bound heuristics of the
// thesis: the treewidth lower bounds minor-min-width (Figure 4.7, Gogate &
// Dechter's QuickBB bound, a.k.a. MMD+(least-c)) and minor-γR (Figure 4.8),
// the min-fill upper bound (§4.4.2), and the generalized-hypertree-width
// lower bound tw-ksc-width (Figure 8.1), which combines a treewidth lower
// bound with a k-set-cover lower bound.
package bounds

import (
	"math/rand"

	"hypertree/internal/elim"
	"hypertree/internal/elimgraph"
	"hypertree/internal/hypergraph"
	"hypertree/internal/setcover"
)

// MinorMinWidth computes the minor-min-width treewidth lower bound
// (thesis Figure 4.7): repeatedly contract a minimum-degree vertex with its
// least-degree neighbor, tracking the maximum minimum degree encountered.
func MinorMinWidth(g *hypergraph.Graph, rng *rand.Rand) int {
	return minorMinWidthOn(newContractGraph(g), rng)
}

// MinorMinWidthElim evaluates the minor-min-width bound on the live subgraph
// of an elimination graph (the per-node lower bound of A*-tw and BB-ghw).
func MinorMinWidthElim(e *elimgraph.ElimGraph, rng *rand.Rand) int {
	return minorMinWidthOn(newContractGraphFromElim(e), rng)
}

func minorMinWidthOn(c *contractGraph, rng *rand.Rand) int {
	lb := 0
	for c.live > 0 {
		v, vd := c.minDegreeVertex(rng)
		if vd > lb {
			lb = vd
		}
		if vd == 0 {
			c.remove(v)
			continue
		}
		u := c.minNeighbor(v, rng)
		c.contract(u, v)
	}
	return lb
}

// MinorGammaR computes the minor-γR treewidth lower bound (thesis Figure
// 4.8), based on the Ramachandramurthi γ parameter: in each round, sort the
// live vertices by degree and find the first one not adjacent to all its
// predecessors; its degree is a lower bound. If every vertex is adjacent to
// all predecessors the graph is complete and n-1 is returned for that round.
func MinorGammaR(g *hypergraph.Graph, rng *rand.Rand) int {
	return minorGammaROn(newContractGraph(g), rng)
}

func minorGammaROn(c *contractGraph, rng *rand.Rand) int {
	lb := 0
	live := make([]int, 0, c.n)
	start := make([]int, c.n+1)
	for c.live > 0 {
		// The live vertices by degree, ascending, and by index within a
		// degree: a stable counting sort (a degree is at most n-1).
		clear(start)
		for u := 0; u < c.n; u++ {
			if c.alive[u] {
				start[c.deg[u]+1]++
			}
		}
		for d := 1; d <= c.n; d++ {
			start[d] += start[d-1]
		}
		live = live[:c.live]
		for u := 0; u < c.n; u++ {
			if c.alive[u] {
				live[start[c.deg[u]]] = u
				start[c.deg[u]]++
			}
		}
		v := -1
		for i, u := range live {
			adjacentToAll := true
			for j := 0; j < i; j++ {
				if !c.hasEdge(u, live[j]) {
					adjacentToAll = false
					break
				}
			}
			if !adjacentToAll {
				v = u
				break
			}
		}
		if v < 0 {
			// Clique (or single vertex): γR degenerates to n-1.
			if c.live-1 > lb {
				lb = c.live - 1
			}
			break
		}
		if d := c.degree(v); d > lb {
			lb = d
		}
		if c.degree(v) == 0 {
			c.remove(v)
			continue
		}
		u := c.minNeighbor(v, rng)
		c.contract(u, v)
	}
	return lb
}

// TreewidthLowerBound returns the strongest of the implemented treewidth
// lower bounds, as used by A*-tw (thesis §5.1: maximum of minor-min-width
// and minor-γR).
func TreewidthLowerBound(g *hypergraph.Graph, rng *rand.Rand) int {
	return max(MinorMinWidth(g, rng), MinorGammaR(g, rng))
}

// MinFillUpperBound returns the width of the min-fill greedy ordering, the
// upper-bound heuristic of QuickBB and A*-tw.
func MinFillUpperBound(g *hypergraph.Graph, rng *rand.Rand) int {
	return elim.WidthOfGraph(g, elim.MinFillOrdering(g, rng))
}

// TwKscWidth computes the generalized-hypertree-width lower bound of thesis
// Figure 8.1 (tw-ksc-width): any GHD of H induces a tree decomposition, so
// some bag has at least lbtw+1 vertices, where lbtw is any treewidth lower
// bound for the primal graph; covering that bag with hyperedges of size at
// most k = max arity needs at least ceil((lbtw+1)/k) of them.
//
// The bound is TreewidthLowerBound's on the primal graph, for the same rng,
// but its contraction graphs are built straight from the hyperedges.
func TwKscWidth(h *hypergraph.Hypergraph, rng *rand.Rand) int {
	if h.M() == 0 {
		return 0
	}
	lbtw := max(minorMinWidthOn(newContractGraphOf(h), rng), minorGammaROn(newContractGraphOf(h), rng))
	return setcover.KSetCoverLowerBound(lbtw+1, h.MaxArity())
}

// TwKscWidthFrom computes the tw-ksc-width bound from an already-known
// treewidth lower bound (used inside BB-ghw/A*-ghw on partially eliminated
// graphs where the caller supplies the bound).
func TwKscWidthFrom(lbtw, maxArity int) int {
	if maxArity < 1 {
		return 0
	}
	return setcover.KSetCoverLowerBound(lbtw+1, maxArity)
}

// GreedyGHWUpperBound returns the greedy-cover ghw of a min-fill ordering —
// the cheap upper bound used to prime BB-ghw and A*-ghw (McMahan's Bucket
// Elimination approach, thesis §2.5.2).
func GreedyGHWUpperBound(h *hypergraph.Hypergraph, rng *rand.Rand) int {
	order := elim.MinFillOrderingBudget(h, rng, nil)
	return elim.NewGHWEvaluator(h, false, rng).Width(order)
}

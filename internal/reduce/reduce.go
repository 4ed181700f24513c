// Package reduce implements the search-space reduction techniques of thesis
// §4.4.3: simplicial and strongly-almost-simplicial vertices can be
// eliminated immediately without increasing the treewidth, which the
// branch-and-bound and A* searches apply node by node to shrink their
// search trees.
package reduce

import (
	"hypertree/internal/elimgraph"
)

// FindReduction returns a vertex that may be eliminated next without loss of
// optimality in a treewidth search: a simplicial vertex, or a strongly
// almost simplicial vertex (almost simplicial with degree not exceeding the
// given treewidth lower bound, thesis Definition 24). Returns -1 if none
// exists. Set allowAlmost to false to restrict to simplicial vertices only
// (used by the ghw searches, where the almost-simplicial rule is not known
// to be safe); the result is then the first live simplicial vertex.
func FindReduction(e *elimgraph.ElimGraph, lb int, allowAlmost bool) int {
	almost := -1
	for v := 0; v < e.N(); v++ {
		if e.Eliminated(v) {
			continue
		}
		if e.IsSimplicial(v) {
			return v
		}
		if allowAlmost && almost < 0 && e.Degree(v) <= lb && e.IsAlmostSimplicial(v) {
			almost = v
		}
	}
	return almost
}

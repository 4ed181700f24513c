// Package reduce implements the search-space reduction techniques of thesis
// §4.4.3: simplicial and strongly-almost-simplicial vertices can be
// eliminated immediately without increasing the treewidth, shrinking both
// preprocessing instances and branch-and-bound / A* search trees.
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

// Preprocess eliminates simplicial vertices (and, when allowAlmost is true,
// strongly almost simplicial vertices w.r.t. lb) from e until none remain.
// It returns the eliminated vertices in order and the width floor they
// impose: any elimination ordering starting with this prefix has width at
// least the maximum elimination degree seen, and some optimal ordering does
// start with it (thesis §4.4.3). The eliminations are left applied; call
// e.Reset() to undo.
//
// test-only: TestPreprocessChordalEliminatesEverything; the searches apply
// FindReduction node by node instead.
func Preprocess(e *elimgraph.ElimGraph, lb int, allowAlmost bool) (prefix []int, widthFloor int) {
	for {
		v := FindReduction(e, lb, allowAlmost)
		if v < 0 {
			return prefix, widthFloor
		}
		d := e.Eliminate(v)
		if d > widthFloor {
			widthFloor = d
		}
		prefix = append(prefix, v)
	}
}

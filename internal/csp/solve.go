package csp

import "hypertree/internal/decomp"

// SolveFromTD solves an arbitrary CSP from a tree decomposition of its
// constraint hypergraph using join-tree clustering (thesis §2.4): the node
// tables of TDTables form a join tree, which is processed by Acyclic
// Solving. The work per node is O(d^(width+1)).
//
// test-only: the reference answer of the csp, csp/engine and bench tests.
func SolveFromTD(c *CSP, td *decomp.TreeDecomposition) []Value {
	tables, err := TDTables(c, td, nil)
	if err != nil {
		panic(err)
	}
	return first(acyclicOnTables(c, tables, td.Parent, td.Root, 1))
}

// SolveFromGHD solves an arbitrary CSP from a complete generalized
// hypertree decomposition of its constraint hypergraph (thesis Figure 2.9):
// the node tables of GHDTables form a join tree, which is processed by
// Acyclic Solving. The work per node is O(|I|^width · log|I|)-style — no
// enumeration over domains.
//
// test-only: the reference answer of the csp and csp/engine tests.
func SolveFromGHD(c *CSP, g *decomp.GHD) []Value {
	tables, err := GHDTables(c, g, nil)
	if err != nil {
		panic(err)
	}
	return first(acyclicOnTables(c, tables, g.Parent, g.Root, 1))
}

// EnumerateFromTD enumerates complete consistent assignments of c from a
// tree decomposition, backtrack-free after one bottom-up semijoin pass
// (the "all complete consistent assignments" use of decompositions, thesis
// §2.2.1/§2.4). At most limit assignments are produced (limit <= 0 means
// all); the total work is polynomial in the output size for fixed width.
// Variables in no bag are fixed to their first domain value rather than
// expanded, keeping the output focused on the constrained part.
//
// test-only: the reference enumeration of the csp and csp/engine tests.
func EnumerateFromTD(c *CSP, td *decomp.TreeDecomposition, limit int) [][]Value {
	tables, err := TDTables(c, td, nil)
	if err != nil {
		panic(err)
	}
	return acyclicOnTables(c, tables, td.Parent, td.Root, limit)
}

// TopDownOrder returns the tree nodes so that every node precedes its
// children (root first, then children in BFS layers). All solvers and the
// compiled engine traverse nodes in exactly this order, which is what makes
// their greedy picks and enumeration sequences comparable.
func TopDownOrder(parent []int, root int) []int {
	children := make([][]int, len(parent))
	for i, p := range parent {
		if p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	order := []int{root}
	for qi := 0; qi < len(order); qi++ {
		order = append(order, children[order[qi]]...)
	}
	return order
}

// ReduceBottomUp is the bottom-up phase of Acyclic Solving (thesis Figure
// 2.4): visiting the nodes of the rooted tree parent in reverse of order (a
// TopDownOrder), it replaces each parent's table by its semijoin with the
// child's. Afterwards every row extends into its node's whole subtree. It
// reports false — no solutions — as soon as any table is empty; a nullary
// table with no rows is the empty relation too.
//
// test-only: the reference reduction of the csp/engine tests, and the
// first pass of acyclicOnTables.
func ReduceBottomUp(tables []*Table, parent, order []int) bool {
	for _, t := range tables {
		if len(t.Rows) == 0 {
			return false
		}
	}
	for i := len(order) - 1; i >= 1; i-- {
		p := parent[order[i]]
		tables[p] = Semijoin(tables[p], tables[order[i]])
		if len(tables[p].Rows) == 0 {
			return false
		}
	}
	return true
}

// acyclicOnTables runs Acyclic Solving over per-node tables arranged in the
// rooted tree (parent, root): ReduceBottomUp, then a top-down walk that the
// reduction makes backtrack-free. It returns up to limit (limit <= 0: all)
// complete consistent assignments, nil if there are none. The first is
// Acyclic Solving's answer: the first consistent row at every node.
// Variables in no table take their first domain value.
//
// test-only: the shared core of the reference solvers above and of
// SolveAcyclic in the tests.
func acyclicOnTables(c *CSP, tables []*Table, parent []int, root, limit int) [][]Value {
	order := TopDownOrder(parent, root)
	if !ReduceBottomUp(tables, parent, order) {
		return nil
	}
	assignment := make([]Value, c.NumVars)
	for v, dom := range c.Domains {
		if len(dom) == 0 {
			return nil
		}
		assignment[v] = dom[0]
	}
	assigned := make([]bool, c.NumVars)
	var out [][]Value
	var rec func(oi int) bool // returns false once the limit is hit
	rec = func(oi int) bool {
		if oi == len(order) {
			out = append(out, append([]Value(nil), assignment...))
			return limit <= 0 || len(out) < limit
		}
		t := tables[order[oi]]
		for _, row := range selectConsistent(t, assignment, assigned) {
			var touched []int
			for i, v := range t.Vars {
				if !assigned[v] {
					assigned[v] = true
					touched = append(touched, v)
				}
				assignment[v] = row[i]
			}
			ok := rec(oi + 1)
			for _, v := range touched {
				assigned[v] = false
			}
			if !ok {
				return false
			}
		}
		return true
	}
	rec(0)
	return out
}

// first is the first of sols, or nil.
//
// test-only: the reference solvers' pick.
func first(sols [][]Value) []Value {
	if len(sols) == 0 {
		return nil
	}
	return sols[0]
}

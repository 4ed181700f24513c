// Package csp implements the constraint-satisfaction substrate of the
// thesis (Chapter 2): CSP instances, constraint hypergraphs, relational
// algebra (natural join with projection, semijoin), the Acyclic Solving
// algorithm (Figure 2.4), and solving arbitrary CSPs from tree
// decompositions (§2.4, join-tree clustering) and from complete generalized
// hypertree decompositions (Figure 2.9).
//
// The compiled query engine (internal/csp/engine) is the one path that
// answers CSPs; this package gives it the CSP model, its node tables and
// the one keyed row lookup, RowIndex. TDTables and GHDTables build the
// node tables of a decomposition; GHDTables folds each λ-set through
// JoinProject (π_keep(a ⋈ b), built without materializing the join, with
// an optional budget, nil = unbounded), running the fold through one
// per-call scratch so a table's rows are views of one flat array. The
// reference solvers here (SolveFromTD, SolveFromGHD, CountFromTD,
// EnumerateFromTD, with the ReduceBottomUp semijoin pass and the
// brute-force counter) are test code kept in place: the engine's
// differential tests compare against them, and each carries a "test-only"
// marker. They build their tables with the same builders and semijoin
// through RowIndex, as the engine's tree edges do; the engine's tests
// therefore also check its plans against a reference build that groups by
// sorting and binary search alone and hashes nothing.
package csp

import (
	"fmt"
	"strconv"

	"hypertree/internal/hypergraph"
)

// Value is a domain value. Domains are small integer sets; callers map
// symbolic values (colors, booleans) to ints.
type Value = int

// Constraint restricts the variables in Scope to the value combinations
// listed in Tuples (each tuple parallel to Scope).
type Constraint struct {
	Scope  []int
	Tuples [][]Value
}

// Allows reports whether the given values (parallel to Scope) satisfy the
// constraint.
func (c *Constraint) Allows(vals []Value) bool {
	for _, t := range c.Tuples {
		match := true
		for i := range t {
			if t[i] != vals[i] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// CSP is a constraint satisfaction problem ⟨X, D, C⟩.
type CSP struct {
	NumVars     int
	Domains     [][]Value
	Constraints []Constraint
	VarNames    []string // optional, for diagnostics
}

// New returns a CSP with n variables, each with the given shared domain.
func New(n int, domain []Value) *CSP {
	c := &CSP{NumVars: n, Domains: make([][]Value, n)}
	for i := range c.Domains {
		c.Domains[i] = append([]Value(nil), domain...)
	}
	return c
}

// AddConstraint appends a constraint over scope with the allowed tuples.
func (c *CSP) AddConstraint(scope []int, tuples [][]Value) {
	for _, v := range scope {
		if v < 0 || v >= c.NumVars {
			panic(fmt.Sprintf("csp: variable %d out of range", v))
		}
	}
	cp := Constraint{Scope: append([]int(nil), scope...)}
	for _, t := range tuples {
		if len(t) != len(scope) {
			panic("csp: tuple arity mismatch")
		}
		cp.Tuples = append(cp.Tuples, append([]Value(nil), t...))
	}
	c.Constraints = append(c.Constraints, cp)
}

// AddNotEqual adds the binary ≠ constraint between variables x and y over
// their domains (the map-coloring constraint of thesis Example 1).
func (c *CSP) AddNotEqual(x, y int) {
	var tuples [][]Value
	for _, a := range c.Domains[x] {
		for _, b := range c.Domains[y] {
			if a != b {
				tuples = append(tuples, []Value{a, b})
			}
		}
	}
	c.AddConstraint([]int{x, y}, tuples)
}

// Hypergraph returns the constraint hypergraph (thesis Definition 7): one
// vertex per variable, one hyperedge per constraint scope.
func (c *CSP) Hypergraph() *hypergraph.Hypergraph {
	h := hypergraph.NewHypergraph(c.NumVars)
	for i, con := range c.Constraints {
		e := h.AddEdge(con.Scope...)
		h.SetEdgeName(e, "c"+strconv.Itoa(i+1))
	}
	for v := 0; v < c.NumVars; v++ {
		if c.VarNames != nil && c.VarNames[v] != "" {
			h.SetVertexName(v, c.VarNames[v])
		}
	}
	return h
}

// Consistent reports whether the complete assignment satisfies every
// constraint.
func (c *CSP) Consistent(assignment []Value) bool {
	if len(assignment) != c.NumVars {
		return false
	}
	vals := make([]Value, 8)
	for _, con := range c.Constraints {
		vals = vals[:0]
		for _, v := range con.Scope {
			vals = append(vals, assignment[v])
		}
		if !con.Allows(vals) {
			return false
		}
	}
	return true
}

// CountSolutionsBrute counts all complete consistent assignments by
// enumeration.
//
// test-only: the ground-truth count of the csp, csp/engine and server tests.
func (c *CSP) CountSolutionsBrute() int {
	assignment := make([]Value, c.NumVars)
	count := 0
	var rec func(i int)
	rec = func(i int) {
		if i == c.NumVars {
			if c.Consistent(assignment) {
				count++
			}
			return
		}
		for _, v := range c.Domains[i] {
			assignment[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	return count
}

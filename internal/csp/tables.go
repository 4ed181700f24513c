package csp

import (
	"errors"
	"fmt"

	"hypertree/internal/budget"
	"hypertree/internal/decomp"
)

// TDTables materializes the node tables of join-tree clustering (thesis
// §2.4): each constraint is placed at the first node whose bag contains its
// scope, and each node's table enumerates the bag's assignments under the
// constraints placed there (O(d^(width+1)) per node). Every TD-based solver
// and the compiled query engine (internal/csp/engine) build their tables
// here, so their answers agree exactly.
//
// bu (nil = unbounded) is ticked once per candidate value placed while
// walking a bag's assignment tree, so a bag whose |domain|^|bag| space
// dwarfs its output is abandoned promptly with an *InterruptedError.
func TDTables(c *CSP, td *decomp.TreeDecomposition, bu *budget.B) ([]*Table, error) {
	if err := td.Validate(c.Hypergraph()); err != nil {
		return nil, fmt.Errorf("csp: invalid tree decomposition: %w", err)
	}
	placed := placeConstraints(c, td.Bags)
	tables := make([]*Table, len(td.Bags))
	for i, bag := range td.Bags {
		t, err := bagTable(c, bag, placed[i], bu)
		if err != nil {
			return nil, err
		}
		tables[i] = t
	}
	return tables, nil
}

// GHDTables materializes the node tables of a complete generalized
// hypertree decomposition (thesis Figure 2.9): each node's table is the
// projection onto its bag of the join of the relations in its λ-set — no
// enumeration over domains, so the cost is output-sensitive. bu (nil =
// unbounded) is ticked per joined, projected or probed row; see Join and
// Project.
func GHDTables(c *CSP, g *decomp.GHD, bu *budget.B) ([]*Table, error) {
	h := c.Hypergraph()
	if err := g.Validate(h); err != nil {
		return nil, fmt.Errorf("csp: invalid GHD: %w", err)
	}
	if !g.IsComplete(h) {
		return nil, errors.New("csp: GHD must be complete (call Complete first)")
	}
	tables := make([]*Table, len(g.Bags))
	for i, bag := range g.Bags {
		if len(bag) == 0 {
			// The empty bag's relation is the nullary identity (one empty
			// tuple), not the empty relation.
			tables[i] = &Table{Rows: [][]Value{{}}}
			continue
		}
		// Validate guarantees a nonempty bag has a nonempty λ-set.
		lambda := g.Lambdas[i]
		t := domainTable(c, &c.Constraints[lambda[0]])
		for _, e := range lambda[1:] {
			var err error
			if t, err = Join(t, domainTable(c, &c.Constraints[e]), bu); err != nil {
				return nil, err
			}
		}
		p, err := Project(t, bag, bu)
		if err != nil {
			return nil, err
		}
		tables[i] = p
	}
	return tables, nil
}

// placeConstraints assigns each constraint to the first node (in node order)
// whose bag contains its scope, returning node -> constraint indices. Bags
// must cover every scope (guaranteed by Validate).
func placeConstraints(c *CSP, bags [][]int) [][]int {
	placed := make([][]int, len(bags))
	for ci := range c.Constraints {
		node := -1
		for i, bag := range bags {
			if containsAll(bag, c.Constraints[ci].Scope) {
				node = i
				break
			}
		}
		placed[node] = append(placed[node], ci)
	}
	return placed
}

// bagTable enumerates all assignments of the bag consistent with the given
// constraints (whose scopes lie inside the bag), ticking bu once per
// candidate value placed.
func bagTable(c *CSP, bag []int, constraints []int, bu *budget.B) (*Table, error) {
	t := &Table{Vars: append([]int(nil), bag...)}
	row := make([]Value, len(bag))
	pos := make(map[int]int, len(bag))
	for i, v := range bag {
		pos[v] = i
	}
	var rec func(i int) bool // false once bu trips
	rec = func(i int) bool {
		if i == len(bag) {
			for _, ci := range constraints {
				con := &c.Constraints[ci]
				vals := make([]Value, len(con.Scope))
				for k, v := range con.Scope {
					vals[k] = row[pos[v]]
				}
				if !con.Allows(vals) {
					return true
				}
			}
			t.Rows = append(t.Rows, append([]Value(nil), row...))
			return true
		}
		for _, v := range c.Domains[bag[i]] {
			if !bu.Tick() {
				return false
			}
			row[i] = v
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	if !rec(0) {
		return nil, Interrupted(bu)
	}
	return t, nil
}

// domainTable materializes a constraint as a table, dropping tuples with
// values outside the variables' domains (domains act as implicit unary
// constraints; brute force and bag enumeration respect them, so the
// relational solvers must too).
func domainTable(c *CSP, con *Constraint) *Table {
	t := &Table{Vars: append([]int(nil), con.Scope...)}
	for _, row := range con.Tuples {
		ok := true
		for i, v := range con.Scope {
			if !inDomain(c.Domains[v], row[i]) {
				ok = false
				break
			}
		}
		if ok {
			t.Rows = append(t.Rows, append([]Value(nil), row...))
		}
	}
	return t
}

func inDomain(domain []Value, x Value) bool {
	for _, d := range domain {
		if d == x {
			return true
		}
	}
	return false
}

func containsAll(sortedBag, subset []int) bool {
	for _, v := range subset {
		lo, hi := 0, len(sortedBag)
		found := false
		for lo < hi {
			mid := (lo + hi) / 2
			switch {
			case sortedBag[mid] == v:
				found = true
				lo = hi
			case sortedBag[mid] < v:
				lo = mid + 1
			default:
				hi = mid
			}
		}
		if !found {
			return false
		}
	}
	return true
}

package csp

import (
	"errors"
	"fmt"
	"slices"

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
// enumeration over domains, so the cost is output-sensitive. The λ-set is
// folded through JoinProject, keeping at each step only the bag's
// variables and those a relation still to be joined needs; since
// JoinProject keeps first occurrences, every table equals joining the
// whole λ-set and then projecting, rows and row order included. The whole
// fold runs through one scratch, its intermediate tables alternating
// between two buffers, and only each node's final table is copied out, at
// exact size. bu (nil = unbounded) is ticked per probing and per joined
// row; see JoinProject.
func GHDTables(c *CSP, g *decomp.GHD, bu *budget.B) ([]*Table, error) {
	h := c.Hypergraph()
	if err := g.Validate(h); err != nil {
		return nil, fmt.Errorf("csp: invalid GHD: %w", err)
	}
	if !g.IsComplete(h) {
		return nil, errors.New("csp: GHD must be complete (call Complete first)")
	}
	var s joinScratch
	identity := &Table{Rows: [][]Value{{}}}    // the nullary identity, one empty tuple
	rels := make([]*Table, len(c.Constraints)) // domain tables, built on first use
	out := make([]Table, len(g.Bags))
	tables := make([]*Table, len(g.Bags))
	for i, bag := range g.Bags {
		tables[i] = &out[i]
		if len(bag) == 0 {
			// The empty bag's relation is the nullary identity, not the
			// empty relation.
			out[i].Rows = [][]Value{{}}
			continue
		}
		// Validate guarantees a nonempty bag has a nonempty λ-set. The fold
		// starts from the nullary identity.
		t := identity
		lambda := g.Lambdas[i]
		for k, e := range lambda {
			if rels[e] == nil {
				rels[e] = domainTable(c, &c.Constraints[e])
			}
			s.keep = append(s.keep[:0], bag...)
			for _, later := range lambda[k+1:] {
				s.keep = append(s.keep, c.Constraints[later].Scope...)
			}
			buf := &s.bufs[k%2]
			if err := s.joinProject(t, rels[e], s.keep, buf, bu); err != nil {
				return nil, err
			}
			t = &buf.Table
		}
		vals := make([]Value, 0, len(t.Rows)*len(t.Vars))
		for _, r := range t.Rows {
			vals = append(vals, r...)
		}
		out[i].Vars = slices.Clone(t.Vars)
		out[i].Rows = rowViews(nil, vals, len(t.Rows), len(t.Vars))
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
// candidate value placed. The rows are views of one flat array.
func bagTable(c *CSP, bag []int, constraints []int, bu *budget.B) (*Table, error) {
	// cols[k] lists the bag column of each variable of constraints[k]'s
	// scope; a check gathers the row's values there into vals.
	cols := make([][]int, len(constraints))
	arity := 0
	for k, ci := range constraints {
		scope := c.Constraints[ci].Scope
		cols[k] = make([]int, len(scope))
		for j, v := range scope {
			cols[k][j] = slices.Index(bag, v)
		}
		arity = max(arity, len(scope))
	}
	vals := make([]Value, arity)
	row := make([]Value, len(bag))
	flat := make([]Value, 0, len(bag))
	n := 0                   // rows in flat
	var rec func(i int) bool // false once bu trips
	rec = func(i int) bool {
		if i == len(bag) {
			for k, ci := range constraints {
				v := vals[:len(cols[k])]
				for j, col := range cols[k] {
					v[j] = row[col]
				}
				if !c.Constraints[ci].Allows(v) {
					return true
				}
			}
			flat = append(grow(flat, len(row)), row...)
			n++
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
	return &Table{Vars: append([]int(nil), bag...), Rows: rowViews(nil, flat, n, len(bag))}, nil
}

// rowViews returns n rows of w values each as views of vals, row r being
// its r-th stretch of w values, in rows' array when it is big enough. No
// rows give nil Rows; a nullary row is an empty, not a nil, tuple.
func rowViews(rows [][]Value, vals []Value, n, w int) [][]Value {
	if n == 0 {
		return nil
	}
	if vals == nil {
		vals = []Value{}
	}
	rows = resize(rows, n)
	for r := range rows {
		rows[r] = vals[r*w : (r+1)*w : (r+1)*w]
	}
	return rows
}

// domainTable returns a constraint as a table, dropping tuples with values
// outside the variables' domains (domains act as implicit unary
// constraints; brute force and bag enumeration respect them, so the
// relational solvers must too). Its rows are the constraint's own tuples,
// not copies: callers only read them.
func domainTable(c *CSP, con *Constraint) *Table {
	t := &Table{Vars: con.Scope, Rows: make([][]Value, 0, len(con.Tuples))}
	for _, row := range con.Tuples {
		ok := true
		for i, v := range con.Scope {
			if !inDomain(c.Domains[v], row[i]) {
				ok = false
				break
			}
		}
		if ok {
			t.Rows = append(t.Rows, row)
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

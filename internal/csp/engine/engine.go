// Package engine compiles a (CSP, decomposition) pair once into an
// immutable query Plan and then answers CSP queries against it at serving
// speed. Compilation does all the per-instance work up front: the bag tables
// of join-tree clustering (thesis §2.4) are materialized and fully
// Yannakakis-reduced (one bottom-up and one top-down semijoin pass), rows
// are packed into flat []Value arenas, and every child table stores, for
// each parent row, the exact group of its rows compatible with it. A
// compiled Plan serves Solve, Count, and Enumerate(limit) — optionally
// parameterized by per-query unary pins applied to each candidate row as
// residual filters — from any number of goroutines with zero
// synchronization: all mutable per-query state lives in a Cursor owned by
// a single goroutine.
//
// The engine builds its tables with csp.TDTables / csp.GHDTables and runs
// csp.ReduceBottomUp, the same code the reference solvers run. Its answers
// are pinned by differential tests to be *exactly* equal (values and
// enumeration order) to the reference paths csp.SolveFromTD,
// csp.CountFromTD, csp.EnumerateFromTD and csp.SolveFromGHD; counts too
// large for an int saturate at math.MaxInt on both sides, and the engine
// also raises an explicit overflow flag (Stats.SolutionsOverflow,
// Cursor.CountExact). A query with pins behaves exactly like the reference
// run on a copy of the CSP whose pinned domains are restricted to the
// pinned value. This works because both sides traverse nodes in
// csp.TopDownOrder, all relational operators preserve row order, and by the
// connectedness condition a row's consistency with the global partial
// assignment is equivalent to its compatibility with the parent's chosen
// row.
package engine

import (
	"cmp"
	"slices"

	"hypertree/internal/budget"
	"hypertree/internal/csp"
	"hypertree/internal/decomp"
)

// node is one decomposition node in BFS (top-down) order. All fields are
// immutable after compilation.
type node struct {
	vars  []int       // column -> variable id
	width int         // len(vars)
	arena []csp.Value // row r is arena[r*width : (r+1)*width]
	nrows int32

	parent   int32   // BFS index of the parent node, -1 for the root
	children []int32 // BFS indexes of children, in BFS order

	// The rows compatible with each parent row, compiled once (see
	// groupRows): group g is grpRows[grpOff[g]:grpOff[g+1]], row ids in row
	// order, and parent row pr's group is group[pr]. nil for the root (root
	// candidates are a plain scan).
	grpRows []int32
	grpOff  []int32
	group   []int32
}

// row returns row r of the node's arena (a view, never a copy).
func (n *node) row(r int32) []csp.Value {
	return n.arena[int(r)*n.width : (int(r)+1)*n.width]
}

// rowsFor returns the ids of the rows that agree with row prow of the
// parent on every shared variable, in row order.
func (n *node) rowsFor(prow int32) []int32 {
	g := n.group[prow]
	return n.grpRows[n.grpOff[g]:n.grpOff[g+1]]
}

// groupRows compiles n's compatibility with its parent pn. n's row ids are
// stably sorted by their values on the shared variables, so each run of
// equal values is one group with row order kept inside it, and each parent
// row finds its group by binary search. A child that shares no variable
// with its parent is one group holding all of its rows. After full
// reduction every parent row has a nonempty group.
func (n *node) groupRows(pn *node) {
	var cols, pcols []int
	for j, v := range n.vars {
		if pc := slices.Index(pn.vars, v); pc >= 0 {
			cols = append(cols, j)
			pcols = append(pcols, pc)
		}
	}
	n.grpRows = make([]int32, n.nrows)
	for r := range n.grpRows {
		n.grpRows[r] = int32(r)
	}
	slices.SortStableFunc(n.grpRows, func(a, b int32) int {
		return cmpOn(n.row(a), cols, n.row(b), cols)
	})
	n.grpOff = []int32{0}
	for i := int32(1); i < n.nrows; i++ {
		if cmpOn(n.row(n.grpRows[i-1]), cols, n.row(n.grpRows[i]), cols) != 0 {
			n.grpOff = append(n.grpOff, i)
		}
	}
	n.grpOff = append(n.grpOff, n.nrows)

	starts := n.grpOff[:len(n.grpOff)-1] // each group's first position
	n.group = make([]int32, pn.nrows)
	for pr := range n.group {
		g, ok := slices.BinarySearchFunc(starts, pn.row(int32(pr)), func(start int32, prow []csp.Value) int {
			return cmpOn(n.row(n.grpRows[start]), cols, prow, pcols)
		})
		if !ok {
			panic("engine: parent row without a compatible child row after full reduction")
		}
		n.group[pr] = int32(g)
	}
}

// cmpOn compares row a at columns ac with row b at the parallel columns bc,
// lexicographically.
func cmpOn(a []csp.Value, ac []int, b []csp.Value, bc []int) int {
	for i, c := range ac {
		if d := cmp.Compare(a[c], b[bc[i]]); d != 0 {
			return d
		}
	}
	return 0
}

// Plan is a compiled, immutable query plan. It is safe for concurrent use:
// all methods are read-only, and per-query scratch lives in Cursors.
type Plan struct {
	numVars int
	domains [][]csp.Value
	nodes   []node  // BFS order; nodes[0] is the root (empty when unsat)
	rowOff  []int32 // node -> offset into flat per-row cursor state
	rowsTot int
	free    []int // variables in no bag ("free"); get Domains[v][0]

	tablesEmpty  bool        // a required table reduced to empty: no solutions, ever
	emptyFreeDom bool        // some free variable has an empty domain (Solve unsat)
	solution     []csp.Value // canonical pin-free solution, nil if unsat
	total        int         // pin-free solution count, saturated at MaxInt
	totalOv      bool        // total saturated: it is a lower bound, not exact
	width        int         // decomposition width, for Stats
}

// Stats summarizes a compiled plan for observability surfaces.
type Stats struct {
	Nodes       int  `json:"nodes"`
	Rows        int  `json:"rows"` // total materialized (reduced) rows
	MaxBagRows  int  `json:"max_bag_rows"`
	Width       int  `json:"width"`
	NumVars     int  `json:"num_vars"`
	Satisfiable bool `json:"satisfiable"`
	Solutions   int  `json:"solutions"`
	// SolutionsOverflow reports the count DP saturated at math.MaxInt:
	// Solutions is then a saturated lower bound, not the true value (which
	// does not fit an int).
	SolutionsOverflow bool `json:"solutions_overflow,omitempty"`
}

// Stats returns compile-time facts about the plan.
func (p *Plan) Stats() Stats {
	s := Stats{
		Nodes:             len(p.nodes),
		Rows:              p.rowsTot,
		Width:             p.width,
		NumVars:           p.numVars,
		Satisfiable:       p.solution != nil,
		Solutions:         p.total,
		SolutionsOverflow: p.totalOv,
	}
	for i := range p.nodes {
		if int(p.nodes[i].nrows) > s.MaxBagRows {
			s.MaxBagRows = int(p.nodes[i].nrows)
		}
	}
	return s
}

// NumVars returns the number of variables of the compiled CSP.
func (p *Plan) NumVars() int { return p.numVars }

// CompileBudget builds a Plan from a tree decomposition of c's constraint
// hypergraph, on the node tables of csp.TDTables. Table materialization and
// the count DP tick bu (nil = unbounded) once per unit of work (an
// enumeration step, an emitted or probed row, a compatible child row the
// count DP visits) and compilation aborts with a *csp.InterruptedError as
// soon as any limit trips — a bag whose |domain|^|bag| space is
// astronomically larger than the request that declared it cannot wedge the
// caller.
func CompileBudget(c *csp.CSP, td *decomp.TreeDecomposition, bu *budget.B) (*Plan, error) {
	tables, err := csp.TDTables(c, td, bu)
	if err != nil {
		return nil, err
	}
	return build(c, tables, td.Parent, td.Root, td.Width(), bu)
}

// CompileGHDBudget builds a Plan from a complete generalized hypertree
// decomposition, on the node tables of csp.GHDTables: each node's table is
// the projection onto its bag of the join of its λ-set relations, so
// compile cost is output-sensitive. bu is ticked per joined, projected or
// probed row; see CompileBudget.
func CompileGHDBudget(c *csp.CSP, g *decomp.GHD, bu *budget.B) (*Plan, error) {
	tables, err := csp.GHDTables(c, g, bu)
	if err != nil {
		return nil, err
	}
	return build(c, tables, g.Parent, g.Root, g.Width(), bu)
}

// build runs the shared compile pipeline: Yannakakis reduction, arena
// packing, row grouping, then one pin-free run of the cursor's count DP and
// solve walk for the plan's cached answers. The count DP ticks bu per
// compatible child row it visits (its only superlinear-in-rows phase); the
// semijoin passes and row grouping cost O(rows log rows) over rows already
// paid for during materialization.
func build(c *csp.CSP, tables []*csp.Table, parentOf []int, root, width int, bu *budget.B) (*Plan, error) {
	p := &Plan{numVars: c.NumVars, width: width}
	p.domains = make([][]csp.Value, c.NumVars)
	for v := range p.domains {
		p.domains[v] = append([]csp.Value(nil), c.Domains[v]...)
	}
	inBag := make([]bool, c.NumVars)
	for _, t := range tables {
		for _, v := range t.Vars {
			inBag[v] = true
		}
	}
	for v := 0; v < c.NumVars; v++ {
		if !inBag[v] {
			p.free = append(p.free, v)
			if len(p.domains[v]) == 0 {
				p.emptyFreeDom = true
			}
		}
	}

	// Full Yannakakis reduction. After the bottom-up pass every row has an
	// extension into its whole subtree; after the top-down pass every row is
	// also reachable from some root row, so each surviving row participates
	// in at least one solution (over the bag variables).
	order := csp.TopDownOrder(parentOf, root)
	if !csp.ReduceBottomUp(tables, parentOf, order) {
		// Unsatisfiable for every query (pins only shrink the solution
		// space): compile the O(1) empty plan. total stays 0.
		p.tablesEmpty = true
		return p, nil
	}
	for _, nd := range order[1:] {
		// Top-down pass; cannot empty a table (every remaining parent row
		// has support in each child after the bottom-up pass).
		tables[nd] = csp.Semijoin(tables[nd], tables[parentOf[nd]])
	}

	// Pack nodes in BFS order, so a parent is packed before its children
	// group their rows against it.
	pos := make([]int32, len(tables))
	for k, orig := range order {
		pos[orig] = int32(k)
	}
	p.nodes = make([]node, len(order))
	p.rowOff = make([]int32, len(order)+1)
	for k, orig := range order {
		t := tables[orig]
		n := &p.nodes[k]
		n.vars = append([]int(nil), t.Vars...)
		n.width = len(t.Vars)
		n.nrows = int32(len(t.Rows))
		n.arena = make([]csp.Value, 0, len(t.Rows)*n.width)
		for _, r := range t.Rows {
			n.arena = append(n.arena, r...)
		}
		if orig == root {
			n.parent = -1
		} else {
			pk := pos[parentOf[orig]]
			n.parent = pk
			n.groupRows(&p.nodes[pk])
			p.nodes[pk].children = append(p.nodes[pk].children, int32(k))
		}
		p.rowOff[k+1] = p.rowOff[k] + n.nrows
	}
	p.rowsTot = int(p.rowOff[len(order)])

	// The pin-free answers every pin-free query returns: the cursor's own
	// count DP and solve walk, run once with no pins.
	cu := p.NewCursor()
	cu.begin(nil)
	total, exact, err := cu.count(bu)
	if err != nil {
		return nil, err
	}
	p.total, p.totalOv = total, !exact
	if sol, ok := cu.solve(); ok {
		p.solution = append([]csp.Value(nil), sol...)
	}
	return p, nil
}

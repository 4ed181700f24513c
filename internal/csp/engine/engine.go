// Package engine compiles a (CSP, decomposition) pair once into an
// immutable query Plan and then answers CSP queries against it at serving
// speed. Compilation does all the per-instance work up front: the bag tables
// of join-tree clustering (thesis §2.4) are materialized and fully
// Yannakakis-reduced (one bottom-up and one top-down semijoin pass), rows
// are packed into flat []Value arenas, and every child table stores, for
// each parent row, the exact group of its rows compatible with it. One
// stable sort per tree edge, of the child's rows on the variables it shares
// with its parent, serves both semijoin passes and the row groups. The
// pin-free count DP runs once at compile time and its per-row subtree
// counts are kept. A compiled Plan serves Solve, CountExact, and
// Enumerate(limit) from any number of goroutines with zero
// synchronization: all mutable per-query state lives in a Cursor owned by
// a single goroutine.
//
// A query may pin variables to values (see Pin). A pin filters the rows of
// one node, the first whose bag holds the variable, and a query revisits
// only the filtered nodes and their ancestors: every other subtree is
// answered as it is pin-free, since full reduction already proves that each
// of its rows extends into it, and its counts are the compiled ones.
//
// The engine builds its tables with csp.TDTables / csp.GHDTables, the same
// code the reference solvers run. The reference solvers reduce with hash
// semijoins (csp.ReduceBottomUp), the engine with its sorted groups, so
// each checks the other. The engine's answers are pinned by differential
// tests to be *exactly* equal (values and enumeration order) to the
// reference paths csp.SolveFromTD, csp.CountFromTD, csp.EnumerateFromTD
// and csp.SolveFromGHD; counts too large for an int saturate at
// math.MaxInt on both sides, and the engine also raises an explicit
// overflow flag (Stats.SolutionsOverflow, Cursor.CountExact). On a plan
// compiled from a tree decomposition, a query with pins behaves exactly
// like the reference run on a copy of the CSP whose pinned domains are
// restricted to the pinned value. This works because both sides traverse
// nodes in csp.TopDownOrder, both reductions preserve row order, and by
// the connectedness condition a row's consistency with the global partial
// assignment is equivalent to its compatibility with the parent's chosen
// row. On a GHD plan, pinned satisfiability and counts are exact too, but
// solutions come in the plan's own row order (see Pin).
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

	// The rows compatible with each parent row, compiled once (see edge):
	// group g is grpRows[grpOff[g]:grpOff[g+1]], row ids in row order, and
	// parent row pr's group is group[pr]. nil for the root (root candidates
	// are a plain scan).
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

// edge reduces and groups one tree edge, a child table against its
// parent's, with one stable sort: the child's rows that survive the
// bottom-up pass below it are sorted on the variables the two share, so
// each run of equal values is one group, with row order kept inside it.
// The groups give the bottom-up semijoin (a parent row survives when its
// binary search finds a group), the top-down semijoin (a group no
// surviving parent row found is dropped whole) and the plan's row groups.
// A child that shares no variable with its parent is one group holding all
// of its rows. Rows are indexes into the csp.Table rows until groupChild
// numbers the final ones as the plan does.
type edge struct {
	child, parent *csp.Table
	cols, pcols   []int   // the shared variables' columns in child and parent
	sorted        []int32 // the child's surviving rows, grouped
	off           []int32 // group g is sorted[off[g]:off[g+1]]
	grp           []int32 // per child row: its group
	found         []int32 // per surviving parent row: the group it found
}

// reduceParent groups the child's rows crows and returns the parent's rows
// prows that find a group, in order: the bottom-up semijoin.
func (e *edge) reduceParent(crows, prows []int32) []int32 {
	for j, v := range e.child.Vars {
		if pc := slices.Index(e.parent.Vars, v); pc >= 0 {
			e.cols = append(e.cols, j)
			e.pcols = append(e.pcols, pc)
		}
	}
	ct := e.child.Rows
	e.sorted = slices.Clone(crows)
	slices.SortStableFunc(e.sorted, func(a, b int32) int {
		return cmpOn(ct[a], e.cols, ct[b], e.cols)
	})
	e.off = []int32{0}
	e.grp = make([]int32, len(ct))
	for i, r := range e.sorted {
		if i > 0 && cmpOn(ct[e.sorted[i-1]], e.cols, ct[r], e.cols) != 0 {
			e.off = append(e.off, int32(i))
		}
		e.grp[r] = int32(len(e.off) - 1)
	}
	e.off = append(e.off, int32(len(e.sorted)))

	starts := e.off[:len(e.off)-1] // each group's first position
	e.found = make([]int32, len(e.parent.Rows))
	kept := prows[:0]
	for _, pr := range prows {
		g, ok := slices.BinarySearchFunc(starts, e.parent.Rows[pr], func(start int32, prow []csp.Value) int {
			return cmpOn(ct[e.sorted[start]], e.cols, prow, e.pcols)
		})
		if ok {
			e.found[pr] = int32(g)
			kept = append(kept, pr)
		}
	}
	return kept
}

// groupChild takes the parent's final rows prows and the child's rows
// crows left by the bottom-up pass. It returns the child's final rows (the
// top-down semijoin) and stores in n the row groups over them, numbering
// rows and groups as the plan does: by position among the final ones.
func (e *edge) groupChild(n *node, prows, crows []int32) []int32 {
	ngroups := len(e.off) - 1
	newGrp := make([]int32, ngroups) // 0: dropped; else 1 + the final number (1 until numbered)
	for _, pr := range prows {
		newGrp[e.found[pr]] = 1
	}
	id := make([]int32, len(e.child.Rows)) // per surviving child row: its final id
	kept := crows[:0]
	for _, r := range crows {
		if newGrp[e.grp[r]] != 0 {
			id[r] = int32(len(kept))
			kept = append(kept, r)
		}
	}
	n.grpRows = make([]int32, 0, len(kept))
	n.grpOff = []int32{0}
	for g := 0; g < ngroups; g++ {
		if newGrp[g] == 0 {
			continue
		}
		newGrp[g] = int32(len(n.grpOff))
		for _, r := range e.sorted[e.off[g]:e.off[g+1]] {
			n.grpRows = append(n.grpRows, id[r])
		}
		n.grpOff = append(n.grpOff, int32(len(n.grpRows)))
	}
	n.group = make([]int32, len(prows))
	for i, pr := range prows {
		n.group[i] = newGrp[e.found[pr]] - 1
	}
	return kept
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

	// The pin-free count DP, kept for pinned queries: per (node,row), the
	// row's extensions into its subtree and whether that count saturated
	// somewhere below. A query reads them for every subtree its pins do
	// not reach.
	sub   []int
	subOv []bool
	// top[v] is the first node, in BFS order, whose bag holds variable v,
	// or -1 if none does. By connectedness it is an ancestor of every other
	// node holding v, and each of those shares v with its parent, so
	// filtering top[v]'s rows enforces a pin on v in all of them.
	top []int32
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
// compile cost is output-sensitive. bu is ticked per probing and per
// joined row; see CompileBudget.
func CompileGHDBudget(c *csp.CSP, g *decomp.GHD, bu *budget.B) (*Plan, error) {
	tables, err := csp.GHDTables(c, g, bu)
	if err != nil {
		return nil, err
	}
	return build(c, tables, g.Parent, g.Root, g.Width(), bu)
}

// build runs the shared compile pipeline: full Yannakakis reduction with
// row grouping (one stable sort per tree edge, see edge), arena packing,
// then one pin-free run of the cursor's count DP and solve walk for the
// plan's cached answers. The count DP ticks bu per compatible child row it
// visits (its only superlinear-in-rows phase); reduction and grouping cost
// O(rows log rows) over rows already paid for during materialization.
func build(c *csp.CSP, tables []*csp.Table, parentOf []int, root, width int, bu *budget.B) (*Plan, error) {
	p := newPlan(c, tables, width)
	order := csp.TopDownOrder(parentOf, root)
	rows, edges := reduceBottomUp(tables, parentOf, order)
	if rows == nil {
		// Unsatisfiable for every query (pins only shrink the solution
		// space): compile the O(1) empty plan. total stays 0.
		p.tablesEmpty = true
		return p, nil
	}

	// Pack nodes in BFS order, so a parent's rows are final before the
	// top-down semijoin reduces its children's and groups them. After it,
	// every surviving row is also reachable from some root row, so each
	// participates in at least one solution (over the bag variables).
	pos := make([]int32, len(tables))
	for k, orig := range order {
		pos[orig] = int32(k)
	}
	p.nodes = make([]node, len(order))
	p.rowOff = make([]int32, len(order)+1)
	for k, orig := range order {
		n := &p.nodes[k]
		if orig == root {
			n.parent = -1
		} else {
			pk := pos[parentOf[orig]]
			n.parent = pk
			rows[orig] = edges[orig].groupChild(n, rows[parentOf[orig]], rows[orig])
			p.nodes[pk].children = append(p.nodes[pk].children, int32(k))
		}
		t := tables[orig]
		n.vars = append([]int(nil), t.Vars...)
		n.width = len(t.Vars)
		n.nrows = int32(len(rows[orig]))
		n.arena = make([]csp.Value, 0, len(rows[orig])*n.width)
		for _, r := range rows[orig] {
			n.arena = append(n.arena, t.Rows[r]...)
		}
		p.rowOff[k+1] = p.rowOff[k] + n.nrows
	}
	p.rowsTot = int(p.rowOff[len(order)])
	if err := p.cacheAnswers(bu); err != nil {
		return nil, err
	}
	return p, nil
}

// reduceBottomUp is the bottom-up phase of Acyclic Solving (thesis Figure
// 2.4) on row ids: visiting the nodes in reverse of order (a
// csp.TopDownOrder), it groups each child's surviving rows and keeps the
// parent rows that find a group. Afterwards every surviving row extends
// into its node's whole subtree. It returns each node's surviving rows and
// the grouped edges (indexed by child), or nil rows as soon as a table is
// or becomes empty: then there are no solutions.
func reduceBottomUp(tables []*csp.Table, parentOf, order []int) ([][]int32, []edge) {
	rows := make([][]int32, len(tables))
	for i, t := range tables {
		if len(t.Rows) == 0 {
			return nil, nil
		}
		rows[i] = make([]int32, len(t.Rows))
		for r := range rows[i] {
			rows[i][r] = int32(r)
		}
	}
	edges := make([]edge, len(tables))
	for i := len(order) - 1; i >= 1; i-- {
		ch, pa := order[i], parentOf[order[i]]
		e := &edges[ch]
		e.child, e.parent = tables[ch], tables[pa]
		if rows[pa] = e.reduceParent(rows[ch], rows[pa]); len(rows[pa]) == 0 {
			return nil, nil
		}
	}
	return rows, edges
}

// newPlan starts c's plan: its domains, and the variables in no table
// ("free"), which take their first domain value.
func newPlan(c *csp.CSP, tables []*csp.Table, width int) *Plan {
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
	return p
}

// cacheAnswers stores the pin-free answers every pin-free query returns,
// and what pinned queries reuse: each variable's top node and every row's
// pin-free subtree count, from the cursor's own count DP and solve walk,
// run once with no pins.
func (p *Plan) cacheAnswers(bu *budget.B) error {
	p.top = make([]int32, p.numVars)
	for v := range p.top {
		p.top[v] = -1
	}
	for k := int32(len(p.nodes) - 1); k >= 0; k-- {
		for _, v := range p.nodes[k].vars {
			p.top[v] = k
		}
	}

	// Every node stamped as reached runs the DP, straight into the plan.
	cu := p.NewCursor()
	p.sub, p.subOv = cu.counts, cu.countOv
	cu.begin(nil)
	for k := range cu.reachEp {
		cu.reachEp[k] = cu.epoch
	}
	total, exact, err := cu.count(bu)
	if err != nil {
		return err
	}
	p.total, p.totalOv = total, !exact
	cu.begin(nil) // nothing reached: the walk takes each group's first row
	if sol, ok := cu.solve(); ok {
		p.solution = append([]csp.Value(nil), sol...)
	}
	return nil
}

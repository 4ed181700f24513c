package engine

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"hypertree/internal/csp"
	"hypertree/internal/decomp"
	"hypertree/internal/elim"
)

// buildRef is the compile pipeline build replaced, kept as the reference
// its plans must equal: csp.ReduceBottomUp and a top-down pass of
// csp.Semijoin (hash semijoins), then row groups by a stable sort of each
// child's final rows on the variables it shares with its parent.
func buildRef(c *csp.CSP, tables []*csp.Table, parentOf []int, root, width int) (*Plan, error) {
	p := newPlan(c, tables, width)
	order := csp.TopDownOrder(parentOf, root)
	if !csp.ReduceBottomUp(tables, parentOf, order) {
		p.tablesEmpty = true
		return p, nil
	}
	for _, nd := range order[1:] {
		tables[nd] = csp.Semijoin(tables[nd], tables[parentOf[nd]])
	}
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
			groupRowsRef(n, &p.nodes[pk])
			p.nodes[pk].children = append(p.nodes[pk].children, int32(k))
		}
		p.rowOff[k+1] = p.rowOff[k] + n.nrows
	}
	p.rowsTot = int(p.rowOff[len(order)])
	if err := p.cacheAnswers(nil); err != nil {
		return nil, err
	}
	return p, nil
}

// groupRowsRef groups n's rows for its parent pn: row ids stably sorted by
// their values on the shared variables, one group per run of equal values,
// and each parent row's group found by binary search.
func groupRowsRef(n, pn *node) {
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

	starts := n.grpOff[:len(n.grpOff)-1]
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

// checkPlanMatchesRef compiles fresh tables from mk with build and with
// buildRef and demands identical plans: node arenas, row groups, cached
// count, overflow bit, emptiness and canonical solution. It reports whether
// the plan is satisfiable.
func checkPlanMatchesRef(t *testing.T, c *csp.CSP, mk func() ([]*csp.Table, error), tree *decomp.Tree, width int) bool {
	t.Helper()
	tables, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	got, err := build(c, tables, tree.Parent, tree.Root, width, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tables, err = mk(); err != nil {
		t.Fatal(err)
	}
	want, err := buildRef(c, tables, tree.Parent, tree.Root, width)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("plan differs from the reference reduction:\ngot  %+v\nwant %+v", got, want)
	}
	return got.solution != nil
}

// Property: one sort per tree edge compiles exactly the plan the hash
// semijoin passes and the separate grouping sort compiled, on random TDs
// and GHDs (unsatisfiable ones included) and on greedy GHDs of 24-signal
// circuit CSPs. Under a constant row hash every lookup of the tables and
// of the tree edges scans one chain; buildRef's sort and binary search
// hash nothing, so the plans must still agree.
func TestPlanMatchesReferenceReduction(t *testing.T) {
	run := func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		sat, unsat := 0, 0
		tally := func(ok bool) {
			if ok {
				sat++
			} else {
				unsat++
			}
		}
		for i := 0; i < 200; i++ {
			c := randomCSP(rng)
			td := randomTD(c, rng)
			tally(checkPlanMatchesRef(t, c, func() ([]*csp.Table, error) { return csp.TDTables(c, td, nil) }, &td.Tree, td.Width()))
			h := c.Hypergraph()
			g, err := elim.GHDFromOrdering(h, rng.Perm(c.NumVars), false, rng)
			if err != nil {
				t.Fatal(err)
			}
			g.Complete(h)
			tally(checkPlanMatchesRef(t, c, func() ([]*csp.Table, error) { return csp.GHDTables(c, g, nil) }, &g.Tree, g.Width()))
		}
		if sat == 0 || unsat == 0 {
			t.Fatalf("random plans: %d satisfiable, %d unsatisfiable; want both kinds", sat, unsat)
		}
		for i := 0; i < 16; i++ {
			c := circuitCSP(24, 26, rng.Int63())
			g := greedyGHD(t, c)
			checkPlanMatchesRef(t, c, func() ([]*csp.Table, error) { return csp.GHDTables(c, g, nil) }, &g.Tree, g.Width())
		}
	}
	t.Run("hash", run)
	t.Run("constant hash", func(t *testing.T) {
		defer csp.SetRowHash(func([]csp.Value, []int) uint64 { return 0 })()
		run(t)
	})
}

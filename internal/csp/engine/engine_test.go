package engine

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"hypertree/internal/csp"
	"hypertree/internal/decomp"
	"hypertree/internal/elim"
	"hypertree/internal/setcover"
)

// randomCSP mirrors the generator of the csp package tests: small random
// CSPs with binary/ternary constraints and a full-domain unary constraint on
// every otherwise unconstrained variable (so decomposition bags stay
// coverable for GHDs).
func randomCSP(rng *rand.Rand) *csp.CSP {
	n := 3 + rng.Intn(4)
	d := 2 + rng.Intn(2)
	domain := make([]csp.Value, d)
	for i := range domain {
		domain[i] = i
	}
	c := csp.New(n, domain)
	m := 2 + rng.Intn(4)
	for k := 0; k < m; k++ {
		arity := 2 + rng.Intn(2)
		if arity > n {
			arity = n
		}
		scope := rng.Perm(n)[:arity]
		total := 1
		for i := 0; i < arity; i++ {
			total *= d
		}
		var tuples [][]csp.Value
		for t := 0; t < total; t++ {
			if rng.Intn(3) == 0 {
				continue
			}
			row := make([]csp.Value, arity)
			x := t
			for i := 0; i < arity; i++ {
				row[i] = x % d
				x /= d
			}
			tuples = append(tuples, row)
		}
		c.AddConstraint(scope, tuples)
	}
	constrained := make([]bool, n)
	for _, con := range c.Constraints {
		for _, v := range con.Scope {
			constrained[v] = true
		}
	}
	for v := 0; v < n; v++ {
		if !constrained[v] {
			var tuples [][]csp.Value
			for _, val := range domain {
				tuples = append(tuples, []csp.Value{val})
			}
			c.AddConstraint([]int{v}, tuples)
		}
	}
	return c
}

func randomTD(c *csp.CSP, rng *rand.Rand) *decomp.TreeDecomposition {
	return elim.TDFromOrdering(c.Hypergraph(), rng.Perm(c.NumVars))
}

// restrict returns the pin-restricted copy of c that defines the semantics
// of parameterized queries: Domains[v] = {val} if val is in the domain, {}
// otherwise.
func restrict(c *csp.CSP, pins []Pin) *csp.CSP {
	r := &csp.CSP{NumVars: c.NumVars, Constraints: c.Constraints, VarNames: c.VarNames}
	r.Domains = make([][]csp.Value, c.NumVars)
	for v := range r.Domains {
		r.Domains[v] = append([]csp.Value(nil), c.Domains[v]...)
	}
	for _, pin := range pins {
		// Pins restrict successively: conflicting duplicates intersect to
		// the empty domain, exactly as the engine treats them.
		in := false
		for _, d := range r.Domains[pin.Var] {
			if d == pin.Val {
				in = true
				break
			}
		}
		if in {
			r.Domains[pin.Var] = []csp.Value{pin.Val}
		} else {
			r.Domains[pin.Var] = nil
		}
	}
	return r
}

// checkAgainstReference asserts the full engine/reference contract on one
// (CSP, TD, pins) triple: Solve, Count, and Enumerate at several limits are
// exactly equal to the reference paths run on the pin-restricted CSP.
func checkAgainstReference(t *testing.T, c *csp.CSP, td *decomp.TreeDecomposition, pins []Pin) {
	t.Helper()
	plan, err := CompileBudget(c, td, nil)
	if err != nil {
		t.Fatalf("CompileBudget: %v", err)
	}
	cu := plan.NewCursor()
	rc := restrict(c, pins)

	wantSol := csp.SolveFromTD(rc, td)
	gotSol, ok := cu.Solve(pins)
	if ok != (wantSol != nil) || (ok && !reflect.DeepEqual(gotSol, wantSol)) {
		t.Fatalf("Solve(%v) = %v,%v; reference %v", pins, gotSol, ok, wantSol)
	}

	wantCount := csp.CountFromTD(rc, td)
	if got, _ := cu.CountExact(pins); got != wantCount {
		t.Fatalf("Count(%v) = %d; reference %d", pins, got, wantCount)
	}

	for _, limit := range []int{0, 1, 2, 7} {
		want := csp.EnumerateFromTD(rc, td, limit)
		got := cu.Enumerate(limit, pins)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Enumerate(limit=%d, pins=%v) =\n%v\nreference\n%v", limit, pins, got, want)
		}
	}
}

// Property: on random CSPs and random tree decompositions, the compiled
// plan's pin-free answers are exactly the reference answers.
func TestPlanMatchesReferenceTD(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCSP(rng)
		checkAgainstReference(t, c, randomTD(c, rng), nil)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: parameterized queries behave exactly like the reference on the
// pin-restricted CSP — including pins outside the domain (unsatisfiable) and
// pins on multiple variables.
func TestParameterizedQueriesMatchRestrictedReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCSP(rng)
		td := randomTD(c, rng)
		npins := 1 + rng.Intn(3)
		pins := make([]Pin, 0, npins)
		for len(pins) < npins {
			v := rng.Intn(c.NumVars)
			// d+1 occasionally lands outside the domain on purpose.
			pins = append(pins, Pin{Var: v, Val: rng.Intn(len(c.Domains[v]) + 1)})
		}
		checkAgainstReference(t, c, td, pins)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a plan compiled from a complete GHD solves exactly like
// csp.SolveFromGHD, and counts like brute force.
func TestPlanMatchesReferenceGHD(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCSP(rng)
		h := c.Hypergraph()
		order := rng.Perm(c.NumVars)
		g, err := elim.GHDFromOrdering(h, order, false, rng)
		if err != nil {
			return false
		}
		g.Complete(h)
		plan, err := CompileGHDBudget(c, g, nil)
		if err != nil {
			t.Fatalf("CompileGHDBudget: %v", err)
		}
		cu := plan.NewCursor()
		want := csp.SolveFromGHD(c, g)
		got, ok := cu.Solve(nil)
		if ok != (want != nil) || (ok && !reflect.DeepEqual(got, want)) {
			t.Fatalf("GHD Solve = %v,%v; reference %v", got, ok, want)
		}
		if gotN, _ := cu.CountExact(nil); gotN != c.CountSolutionsBrute() {
			t.Fatalf("GHD Count = %d; brute %d", gotN, c.CountSolutionsBrute())
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// mixedPins draws a query's pins: none, or 1 to 3, each in the variable's
// domain, outside it, or a duplicate disagreeing with the pin before it.
func mixedPins(c *csp.CSP, rng *rand.Rand) []Pin {
	if rng.Intn(4) == 0 {
		return nil
	}
	pins := make([]Pin, 0, 3)
	for n := 1 + rng.Intn(3); len(pins) < n; {
		v := rng.Intn(c.NumVars)
		dom := c.Domains[v]
		pin := Pin{Var: v, Val: dom[rng.Intn(len(dom))]}
		switch rng.Intn(6) {
		case 0:
			pin.Val = len(dom) // domains are 0..d-1
		case 1:
			if len(pins) > 0 {
				last := pins[len(pins)-1]
				pin = Pin{Var: last.Var, Val: (last.Val + 1) % len(c.Domains[last.Var])}
			}
		}
		pins = append(pins, pin)
	}
	return pins
}

// checkPinnedSolution fails unless sol is a complete assignment of c within
// its domains that satisfies every constraint and every pin.
func checkPinnedSolution(t *testing.T, c *csp.CSP, pins []Pin, sol []csp.Value) {
	t.Helper()
	if !c.Consistent(sol) {
		t.Fatalf("pins %v: %v is not a solution", pins, sol)
	}
	for v, x := range sol {
		if !slices.Contains(c.Domains[v], x) {
			t.Fatalf("pins %v: %v leaves the domain of variable %d", pins, sol, v)
		}
	}
	for _, pin := range pins {
		if sol[pin.Var] != pin.Val {
			t.Fatalf("pins %v: %v breaks pin %v", pins, sol, pin)
		}
	}
}

// checkPinnedSequence runs one sequence of pinned queries on one cursor of
// a GHD plan, twice: from a fresh cursor, and again with the epoch just
// below the wrap, so the second run crosses it with the first run's stamps
// still in place. Against the pin-restricted CSP, every sat bit must equal
// csp.SolveFromGHD's, every solution satisfy the CSP and the pins, every
// count equal countRef, and every enumeration return min(limit, count)
// distinct solutions.
func checkPinnedSequence(t *testing.T, c *csp.CSP, g *decomp.GHD, seq [][]Pin, countRef func(*csp.CSP) int) {
	t.Helper()
	plan, err := CompileGHDBudget(c, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(seq))
	for i, pins := range seq {
		rc := restrict(c, pins)
		counts[i] = countRef(rc)
		if sat := csp.SolveFromGHD(rc, g) != nil; sat != (counts[i] > 0) {
			t.Fatalf("pins %v: reference solve says sat=%v, reference count %d", pins, sat, counts[i])
		}
	}
	cu := plan.NewCursor()
	for _, epoch := range []uint32{cu.epoch, math.MaxUint32 - 9} {
		cu.epoch = epoch
		for i, pins := range seq {
			want, sat := counts[i], counts[i] > 0
			sol, ok := cu.Solve(pins)
			if ok != sat {
				t.Fatalf("Solve(%v) sat=%v; reference %v", pins, ok, sat)
			}
			if ok {
				checkPinnedSolution(t, c, pins, sol)
			}
			if n, exact := cu.CountExact(pins); n != want || !exact {
				t.Fatalf("CountExact(%v) = (%d, %v); reference %d", pins, n, exact, want)
			}
			for _, limit := range []int{1, 3} {
				rows := cu.Enumerate(limit, pins)
				if len(rows) != min(limit, want) {
					t.Fatalf("Enumerate(%d, %v) returned %d rows; reference count %d", limit, pins, len(rows), want)
				}
				for i, row := range rows {
					checkPinnedSolution(t, c, pins, row)
					for _, prev := range rows[:i] {
						if slices.Equal(prev, row) {
							t.Fatalf("Enumerate(%d, %v) repeats %v", limit, pins, row)
						}
					}
				}
			}
		}
	}
}

// Property: on GHD plans, one cursor answers a mixed sequence of pinned
// queries — pin-free, in-domain, out-of-domain and conflicting pins — as
// the pin-restricted CSP does, across the epoch wrap. A GHD plan's solution
// may differ from csp.SolveFromGHD's on the restricted CSP (see Pin), so
// solutions are checked for validity, not equality. Counts are checked by
// brute force on random CSPs with random completed GHDs, and by
// csp.CountFromTD over the GHD's tree decomposition on greedy GHDs of
// 24-signal circuit CSPs.
func TestPinnedQueriesOnGHDPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	sequence := func(c *csp.CSP) [][]Pin {
		seq := make([][]Pin, 20)
		for j := range seq {
			seq[j] = mixedPins(c, rng)
		}
		return seq
	}
	for i := 0; i < 150; i++ {
		c := randomCSP(rng)
		h := c.Hypergraph()
		g, err := elim.GHDFromOrdering(h, rng.Perm(c.NumVars), false, rng)
		if err != nil {
			t.Fatal(err)
		}
		g.Complete(h)
		checkPinnedSequence(t, c, g, sequence(c), (*csp.CSP).CountSolutionsBrute)
	}
	for i := 0; i < 4; i++ {
		c := circuitCSP(24, 26, rng.Int63())
		g := greedyGHD(t, c)
		checkPinnedSequence(t, c, g, sequence(c), func(rc *csp.CSP) int { return csp.CountFromTD(rc, &g.TreeDecomposition) })
	}
}

// Property: a plan compiled from an ordering's GHD with its nested bags
// contracted (decomp.TreeDecomposition.Compact, as core's exit hands it
// off) answers as the plan from the same ordering's uncontracted GHD does:
// equal plan facts, and under mixed pins equal sat bits, counts and
// enumeration sizes, with every solution valid for the CSP and the pins.
// The CSPs are random ones and 24-signal circuits; the covers are greedy
// under one seed on both sides.
func TestCompactedGHDPlansAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	fewer := 0
	for i := 0; i < 160; i++ {
		c := randomCSP(rng)
		if i%40 == 0 {
			c = circuitCSP(24, 26, rng.Int63())
		}
		h := c.Hypergraph()
		order := rng.Perm(c.NumVars)
		seed := rng.Int63()
		full, err := elim.GHDFromOrdering(h, order, false, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		td := elim.TDFromOrdering(h, order).Compact()
		compact, err := decomp.FromTreeDecompositionWithEngine(setcover.NewEngine(h, 0), td, decomp.CoverGreedy, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if len(compact.Bags) < len(full.Bags) {
			fewer++
		}
		full.Complete(h)
		compact.Complete(h)
		fp, err := CompileGHDBudget(c, full, nil)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := CompileGHDBudget(c, compact, nil)
		if err != nil {
			t.Fatal(err)
		}
		fs, cs := fp.Stats(), cp.Stats()
		if fs.Satisfiable != cs.Satisfiable || fs.Solutions != cs.Solutions || fs.SolutionsOverflow != cs.SolutionsOverflow {
			t.Fatalf("#%d: compacted plan sat %v, %d solutions; uncompacted sat %v, %d", i, cs.Satisfiable, cs.Solutions, fs.Satisfiable, fs.Solutions)
		}
		fc, cc := fp.NewCursor(), cp.NewCursor()
		for q := 0; q < 12; q++ {
			pins := mixedPins(c, rng)
			fsol, fok := fc.Solve(pins)
			csol, cok := cc.Solve(pins)
			if fok != cok {
				t.Fatalf("#%d: Solve(%v) sat %v on the compacted plan, %v on the uncompacted", i, pins, cok, fok)
			}
			if cok {
				checkPinnedSolution(t, c, pins, fsol)
				checkPinnedSolution(t, c, pins, csol)
			}
			fn, fexact := fc.CountExact(pins)
			cn, cexact := cc.CountExact(pins)
			if fn != cn || fexact != cexact {
				t.Fatalf("#%d: CountExact(%v) = (%d, %v) on the compacted plan, (%d, %v) on the uncompacted", i, pins, cn, cexact, fn, fexact)
			}
			rows := cc.Enumerate(3, pins)
			if len(rows) != len(fc.Enumerate(3, pins)) {
				t.Fatalf("#%d: Enumerate(3, %v) sizes differ", i, pins)
			}
			for _, row := range rows {
				checkPinnedSolution(t, c, pins, row)
			}
		}
	}
	if fewer == 0 {
		t.Fatal("no compacted GHD had fewer nodes; the property compared equal trees only")
	}
}

// A wrapped epoch clears every stamp. On the path x0-x1-x2-x3 (not-equal
// constraints, solutions 0101 and 1010), epoch 1 pins x1 at the root and x3
// at the leaf and reaches all three nodes; epoch 2 reaches the root only.
// After the wrap, epoch 1 pins x2 at the middle node: a stale pin on x1
// would empty the middle node's rows, and a stale "reached" stamp there
// would stop the ancestor walk at once and leave the root reading its
// pin-free counts.
func TestEpochWrapClearsStamps(t *testing.T) {
	c := csp.New(4, []csp.Value{0, 1})
	c.AddNotEqual(0, 1)
	c.AddNotEqual(1, 2)
	c.AddNotEqual(2, 3)
	td := &decomp.TreeDecomposition{
		Tree: decomp.Tree{Parent: []int{-1, 0, 1}, Root: 0},
		Bags: [][]int{{0, 1}, {1, 2}, {2, 3}},
	}
	cu := mustPlan(t, c, td).NewCursor()
	for _, q := range []struct {
		pins  []Pin
		epoch uint32 // set before the query
		want  int
	}{
		{[]Pin{{Var: 1, Val: 0}, {Var: 3, Val: 0}}, 0, 1},
		{[]Pin{{Var: 0, Val: 1}}, 1, 1},
		{[]Pin{{Var: 2, Val: 0}}, math.MaxUint32, 1},
	} {
		cu.epoch = q.epoch
		if n, _ := cu.CountExact(q.pins); n != q.want {
			t.Fatalf("Count(%v) from epoch %d = %d, want %d", q.pins, q.epoch, n, q.want)
		}
	}
}

// Degenerate CSPs (empty relation, empty domain, constraint-free variables)
// must flow identically through the engine and all four reference paths.
func TestDegenerateCSPs(t *testing.T) {
	t.Run("empty relation", func(t *testing.T) {
		c := csp.New(3, []csp.Value{0, 1})
		c.AddConstraint([]int{0, 1}, nil) // no allowed tuples: unsatisfiable
		c.AddConstraint([]int{1, 2}, [][]csp.Value{{0, 0}, {1, 1}})
		td := elim.TDFromOrdering(c.Hypergraph(), []int{0, 1, 2})
		checkAgainstReference(t, c, td, nil)
		if sol, ok := mustPlan(t, c, td).NewCursor().Solve(nil); ok {
			t.Fatalf("empty relation should be unsatisfiable, got %v", sol)
		}
		h := c.Hypergraph()
		g, err := elim.GHDFromOrdering(h, []int{0, 1, 2}, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		g.Complete(h)
		plan, err := CompileGHDBudget(c, g, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := plan.NewCursor().Solve(nil); ok != (csp.SolveFromGHD(c, g) != nil) {
			t.Fatal("GHD engine/reference disagree on empty relation")
		}
	})
	t.Run("empty domain on constrained variable", func(t *testing.T) {
		c := csp.New(3, []csp.Value{0, 1})
		c.Domains[1] = nil
		c.AddConstraint([]int{0, 1}, [][]csp.Value{{0, 0}, {1, 1}})
		c.AddConstraint([]int{1, 2}, [][]csp.Value{{0, 1}})
		td := elim.TDFromOrdering(c.Hypergraph(), []int{2, 1, 0})
		checkAgainstReference(t, c, td, nil)
	})
	t.Run("constraint-free variable outside all bags", func(t *testing.T) {
		c := csp.New(3, []csp.Value{0, 1})
		c.AddNotEqual(0, 1)
		td := &decomp.TreeDecomposition{
			Tree: decomp.Tree{Parent: []int{-1}, Root: 0},
			Bags: [][]int{{0, 1}}, // variable 2 is in no bag
		}
		checkAgainstReference(t, c, td, nil)
		// Pinning the free variable must behave like restricting its domain.
		checkAgainstReference(t, c, td, []Pin{{Var: 2, Val: 1}})
		checkAgainstReference(t, c, td, []Pin{{Var: 2, Val: 9}})
	})
	t.Run("constraint-free variable with empty domain", func(t *testing.T) {
		c := csp.New(3, []csp.Value{0, 1})
		c.Domains[2] = nil
		c.AddNotEqual(0, 1)
		td := &decomp.TreeDecomposition{
			Tree: decomp.Tree{Parent: []int{-1}, Root: 0},
			Bags: [][]int{{0, 1}},
		}
		checkAgainstReference(t, c, td, nil)
	})
	t.Run("no constraints at all", func(t *testing.T) {
		c := csp.New(2, []csp.Value{0, 1})
		td := &decomp.TreeDecomposition{
			Tree: decomp.Tree{Parent: []int{-1}, Root: 0},
			Bags: [][]int{{}},
		}
		checkAgainstReference(t, c, td, nil)
		checkAgainstReference(t, c, td, []Pin{{Var: 0, Val: 1}})
	})
}

// checkGroups asserts the compiled row groups against their definition: for
// every non-root node and every parent row, rowsFor is exactly the node's
// rows that agree with the parent row on every shared variable, in row
// order, and it is nonempty.
func checkGroups(t *testing.T, p *Plan) {
	t.Helper()
	for k := 1; k < len(p.nodes); k++ {
		n := &p.nodes[k]
		pn := &p.nodes[n.parent]
		for pr := int32(0); pr < pn.nrows; pr++ {
			var want []int32
			for r := int32(0); r < n.nrows; r++ {
				if agree(n.vars, n.row(r), pn.vars, pn.row(pr)) {
					want = append(want, r)
				}
			}
			if got := n.rowsFor(pr); len(want) == 0 || !slices.Equal(got, want) {
				t.Fatalf("node %d, parent row %d %v: rowsFor = %v, want nonempty %v", k, pr, pn.row(pr), got, want)
			}
		}
	}
}

// agree reports whether two rows give every variable they share the same
// value.
func agree(avars []int, a []csp.Value, bvars []int, b []csp.Value) bool {
	for i, v := range avars {
		for j, w := range bvars {
			if v == w && a[i] != b[j] {
				return false
			}
		}
	}
	return true
}

// Property: on random CSPs with random TDs and GHDs, every parent row's
// group is exactly its compatible child rows, in row order, and nonempty —
// including children that share no variable with their parent and empty
// bags.
func TestRowGroupsAreExactCompatibleRows(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCSP(rng)
		checkGroups(t, mustPlan(t, c, randomTD(c, rng)))
		h := c.Hypergraph()
		g, err := elim.GHDFromOrdering(h, rng.Perm(c.NumVars), false, rng)
		if err != nil {
			t.Fatal(err)
		}
		g.Complete(h)
		plan, err := CompileGHDBudget(c, g, nil)
		if err != nil {
			t.Fatalf("CompileGHDBudget: %v", err)
		}
		checkGroups(t, plan)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}

	// Two constraints over disjoint variables, so each layout below has a
	// child sharing nothing with its parent: every parent row's group is
	// then all of the child's rows.
	c := csp.New(4, []csp.Value{0, 1})
	c.AddNotEqual(0, 1)
	c.AddConstraint([]int{2, 3}, [][]csp.Value{{0, 0}, {0, 1}, {1, 1}})
	for _, tc := range []struct {
		name   string
		parent []int
		bags   [][]int
	}{
		{"no shared variable", []int{-1, 0}, [][]int{{0, 1}, {2, 3}}},
		{"empty root bag", []int{-1, 0, 0}, [][]int{{}, {0, 1}, {2, 3}}},
		{"empty leaf bag", []int{-1, 0, 1}, [][]int{{0, 1}, {2, 3}, {}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			td := &decomp.TreeDecomposition{Tree: decomp.Tree{Parent: tc.parent, Root: 0}, Bags: tc.bags}
			plan := mustPlan(t, c, td)
			checkGroups(t, plan)
			for k := 1; k < len(plan.nodes); k++ {
				n := &plan.nodes[k]
				if len(n.grpOff) != 2 {
					t.Fatalf("node %d shares nothing with its parent but has %d groups", k, len(n.grpOff)-1)
				}
			}
			checkAgainstReference(t, c, td, nil)
			checkAgainstReference(t, c, td, []Pin{{Var: 2, Val: 1}})
		})
	}
}

// One plan, many goroutines, zero synchronization: every cursor must see
// exactly the reference answers. Run under -race this doubles as the
// data-race proof for concurrent serving.
func TestConcurrentCursors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := randomCSP(rng)
	td := randomTD(c, rng)
	plan := mustPlan(t, c, td)
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cu := plan.NewCursor()
			lrng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 200; i++ {
				pins := []Pin{{Var: lrng.Intn(c.NumVars), Val: lrng.Intn(3)}}
				rc := restrict(c, pins)
				want := csp.SolveFromTD(rc, td)
				got, ok := cu.Solve(pins)
				if ok != (want != nil) || (ok && !reflect.DeepEqual(got, want)) {
					errs <- "solve mismatch under concurrency"
					return
				}
				if n, _ := cu.CountExact(pins); n != csp.CountFromTD(rc, td) {
					errs <- "count mismatch under concurrency"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestCompileErrors(t *testing.T) {
	c := csp.New(2, []csp.Value{0, 1})
	c.AddNotEqual(0, 1)
	badTD := &decomp.TreeDecomposition{
		Tree: decomp.Tree{Parent: []int{-1}, Root: 0},
		Bags: [][]int{{0}}, // does not cover the constraint scope
	}
	if _, err := CompileBudget(c, badTD, nil); err == nil {
		t.Fatal("CompileBudget should reject an invalid tree decomposition")
	}
	// A valid but incomplete GHD: two constraints share the scope {0,1}, one
	// node covers the bag with only the first, so the second edge has no
	// witnessing node.
	c2 := csp.New(2, []csp.Value{0, 1})
	c2.AddNotEqual(0, 1)
	c2.AddConstraint([]int{0, 1}, [][]csp.Value{{0, 1}})
	h := c2.Hypergraph()
	g := &decomp.GHD{
		TreeDecomposition: decomp.TreeDecomposition{
			Tree: decomp.Tree{Parent: []int{-1}, Root: 0},
			Bags: [][]int{{0, 1}},
		},
		Lambdas: [][]int{{0}},
	}
	if err := g.Validate(h); err != nil {
		t.Fatalf("test GHD should be valid: %v", err)
	}
	if g.IsComplete(h) {
		t.Fatal("test GHD should be incomplete")
	}
	if _, err := CompileGHDBudget(c2, g, nil); err == nil {
		t.Fatal("CompileGHDBudget should reject an incomplete GHD")
	}
}

// Plan.Stats must reflect compile-time facts the daemon exposes.
func TestPlanStats(t *testing.T) {
	c := csp.New(2, []csp.Value{0, 1})
	c.AddNotEqual(0, 1)
	td := elim.TDFromOrdering(c.Hypergraph(), []int{0, 1})
	plan := mustPlan(t, c, td)
	st := plan.Stats()
	if !st.Satisfiable || st.Solutions != 2 || st.Nodes == 0 || st.Rows == 0 || st.NumVars != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func mustPlan(t *testing.T, c *csp.CSP, td *decomp.TreeDecomposition) *Plan {
	t.Helper()
	plan, err := CompileBudget(c, td, nil)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

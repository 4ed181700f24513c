package engine

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"hypertree/internal/csp"
	"hypertree/internal/decomp"
	"hypertree/internal/elim"
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
	if got := cu.Count(pins); got != wantCount {
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
		if gotN := cu.Count(nil); gotN != c.CountSolutionsBrute() {
			t.Fatalf("GHD Count = %d; brute %d", gotN, c.CountSolutionsBrute())
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
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

// Forced collisions: compile and query under a constant hash; every bucket
// probe degenerates to a scan, and answers must not change.
func TestPlanUnderForcedCollisions(t *testing.T) {
	old := tupleHashHook
	tupleHashHook = func([]csp.Value, []int32) uint64 { return 0 }
	defer func() { tupleHashHook = old }()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		c := randomCSP(rng)
		td := randomTD(c, rng)
		pins := []Pin{{Var: rng.Intn(c.NumVars), Val: rng.Intn(3)}}
		checkAgainstReference(t, c, td, nil)
		checkAgainstReference(t, c, td, pins)
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
				if cu.Count(pins) != csp.CountFromTD(rc, td) {
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

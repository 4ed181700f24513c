package engine

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"hypertree/internal/budget"
	"hypertree/internal/csp"
	"hypertree/internal/decomp"
)

// hugeBagInstance builds the adversarial shape the compile budget exists
// for: a single 16-variable bag over an 8-value domain whose enumeration
// walks 8^16 ≈ 3·10^14 candidates (the bag walk prunes only at the leaves),
// from a request a few hundred bytes long. One sparse 16-ary constraint
// keeps the decomposition valid while the walk stays astronomical.
func hugeBagInstance() (*csp.CSP, *decomp.TreeDecomposition) {
	const n, d = 16, 8
	domain := make([]csp.Value, d)
	for i := range domain {
		domain[i] = csp.Value(i)
	}
	c := csp.New(n, domain)
	scope := make([]int, n)
	for i := range scope {
		scope[i] = i
	}
	c.AddConstraint(scope, [][]csp.Value{make([]csp.Value, n)}) // all-zeros only
	td := &decomp.TreeDecomposition{
		Tree: decomp.Tree{Parent: []int{-1}, Root: 0},
		Bags: [][]int{scope},
	}
	return c, td
}

// A node budget must stop CompileBudget on the huge bag long before the
// 8^16 walk finishes, with the typed error and the node-budget reason.
func TestCompileBudgetTripsOnHugeBag(t *testing.T) {
	c, td := hugeBagInstance()
	bu := budget.New(context.Background(), budget.Limits{MaxNodes: 10_000, CheckEvery: 16})
	start := time.Now()
	plan, err := CompileBudget(c, td, bu)
	if plan != nil {
		t.Fatal("CompileBudget returned a plan past its budget")
	}
	var ie *csp.InterruptedError
	if !errors.As(err, &ie) {
		t.Fatalf("CompileBudget error = %v, want *csp.InterruptedError", err)
	}
	if ie.Reason != budget.StopNodes {
		t.Fatalf("Reason = %q, want %q", ie.Reason, budget.StopNodes)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("budget trip took %v — ticks are not reaching the bag walk", el)
	}
}

// A canceled context must abort the same compile with the cancellation
// reason — the server relies on this for client disconnects and drain.
func TestCompileBudgetHonorsContextCancel(t *testing.T) {
	c, td := hugeBagInstance()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bu := budget.New(ctx, budget.Limits{CheckEvery: 1})
	_, err := CompileBudget(c, td, bu)
	var ie *csp.InterruptedError
	if !errors.As(err, &ie) || ie.Reason != budget.StopCanceled {
		t.Fatalf("CompileBudget error = %v, want *csp.InterruptedError(canceled)", err)
	}
}

// satInstance: 70 boolean variables, one trivial constraint on variable 0,
// a single-bag decomposition covering only that variable. The remaining 69
// variables are free, so the true solution count is 2^70 — past int range.
func satInstance() (*csp.CSP, *decomp.TreeDecomposition) {
	c := csp.New(70, []csp.Value{0, 1})
	c.AddConstraint([]int{0}, [][]csp.Value{{0}, {1}})
	td := &decomp.TreeDecomposition{
		Tree: decomp.Tree{Parent: []int{-1}, Root: 0},
		Bags: [][]int{{0}},
	}
	return c, td
}

// The count DP must saturate at math.MaxInt with the overflow flag raised
// instead of wrapping (2^70 ≡ 0 mod 2^64), and agree with the reference
// CountFromTD, which saturates through the same arithmetic.
func TestCountSaturatesInsteadOfWrapping(t *testing.T) {
	c, td := satInstance()
	plan, err := CompileBudget(c, td, nil)
	if err != nil {
		t.Fatalf("CompileBudget: %v", err)
	}
	st := plan.Stats()
	if st.Solutions != math.MaxInt || !st.SolutionsOverflow {
		t.Fatalf("Stats = (%d, overflow=%v), want (MaxInt, true)", st.Solutions, st.SolutionsOverflow)
	}
	if ref := csp.CountFromTD(c, td); ref != st.Solutions {
		t.Fatalf("reference CountFromTD = %d, engine %d; want both math.MaxInt", ref, st.Solutions)
	}

	cu := plan.NewCursor()
	if n, exact := cu.CountExact(nil); n != math.MaxInt || exact {
		t.Fatalf("CountExact(nil) = (%d, %v), want (MaxInt, false)", n, exact)
	}
	// Pinning one free variable halves the count to 2^69 — still saturated.
	if n, exact := cu.CountExact([]Pin{{Var: 5, Val: 1}}); n != math.MaxInt || exact {
		t.Fatalf("CountExact(pin) = (%d, %v), want (MaxInt, false)", n, exact)
	}
	// Pinning a value outside the domain empties it: exactly zero, exact,
	// and the overflow flag must not leak through a ×0.
	if n, exact := cu.CountExact([]Pin{{Var: 5, Val: 9}}); n != 0 || !exact {
		t.Fatalf("CountExact(bad pin) = (%d, %v), want (0, true)", n, exact)
	}
}

// Counts that fit in an int must stay exact — the saturation path must not
// taint ordinary instances.
func TestCountExactOnSmallInstance(t *testing.T) {
	c := csp.New(3, []csp.Value{0, 1})
	c.AddConstraint([]int{0, 1}, [][]csp.Value{{0, 0}, {1, 1}})
	c.AddConstraint([]int{1, 2}, [][]csp.Value{{0, 0}, {1, 1}})
	td := &decomp.TreeDecomposition{
		Tree: decomp.Tree{Parent: []int{-1, 0}, Root: 0},
		Bags: [][]int{{0, 1}, {1, 2}},
	}
	plan, err := CompileBudget(c, td, nil)
	if err != nil {
		t.Fatalf("CompileBudget: %v", err)
	}
	st := plan.Stats()
	if st.Solutions != 2 || st.SolutionsOverflow {
		t.Fatalf("Stats = (%d, overflow=%v), want (2, false)", st.Solutions, st.SolutionsOverflow)
	}
	cu := plan.NewCursor()
	if n, exact := cu.CountExact([]Pin{{Var: 0, Val: 1}}); n != 1 || !exact {
		t.Fatalf("CountExact(pin 0=1) = (%d, %v), want (1, true)", n, exact)
	}
}

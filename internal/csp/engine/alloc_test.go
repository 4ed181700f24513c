package engine

import (
	"math/rand"
	"testing"

	"hypertree/internal/csp"
)

// The compiled query path must allocate nothing per query: all scratch is
// preallocated in the cursor, compatible rows are slices of the plan's row
// groups, and Solve returns a cursor-owned buffer.
func TestSolveAndCountZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := randomCSP(rng)
	td := randomTD(c, rng)
	plan, err := CompileBudget(c, td, nil)
	if err != nil {
		t.Fatal(err)
	}
	cu := plan.NewCursor()
	pins := []Pin{{Var: 0, Val: 0}}
	if got := testing.AllocsPerRun(200, func() {
		cu.Solve(pins)
	}); got != 0 {
		t.Fatalf("Solve allocates %v per query, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		cu.CountExact(pins)
	}); got != 0 {
		t.Fatalf("CountExact allocates %v per query, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		cu.Solve(nil)
	}); got != 0 {
		t.Fatalf("pin-free Solve allocates %v per query, want 0", got)
	}
}

// A compile allocates per plan node, never per row: node tables are
// written into one scratch per compile and copied out once per node, and
// every tree edge's arrays are cut from one arena. The greedy circuit GHDs
// of query-cold take 17.6–20.7 allocations per node, GHD validation
// included (18.6–21.9 under -race), so 28 per node leaves room for the
// toolchain; one allocation per plan row would add 9–17 per node, and one
// per joined row about a hundred.
func TestCompileAllocsLinearInNodes(t *testing.T) {
	const perNode = 28
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		c := circuitCSP(24, 26, rng.Int63())
		g := greedyGHD(t, c)
		got := testing.AllocsPerRun(3, func() {
			if _, err := CompileGHDBudget(c, g, nil); err != nil {
				t.Fatal(err)
			}
		})
		if limit := float64(perNode * len(g.Bags)); got > limit {
			t.Fatalf("circuit %d: a compile of %d nodes allocates %v times, want at most %v", i, len(g.Bags), got, limit)
		}
	}
}

// JoinProject's allocations grow with the logarithm of its output: its
// arrays grow geometrically. Ten times the output rows may add a few
// allocations per growing array, not one per row (9,000 here).
func TestJoinProjectAllocsLogarithmic(t *testing.T) {
	allocs := func(rows int) float64 {
		a := &csp.Table{Vars: []int{0}, Rows: make([][]csp.Value, rows)}
		for i := range a.Rows {
			a.Rows[i] = []csp.Value{i}
		}
		b := &csp.Table{Vars: []int{1}, Rows: [][]csp.Value{{0}}}
		return testing.AllocsPerRun(3, func() {
			if _, err := csp.JoinProject(a, b, []int{0, 1}, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000), allocs(10000)
	if large-small > 32 {
		t.Fatalf("JoinProject allocates %v times for 1,000 rows and %v for 10,000; want at most 32 more", small, large)
	}
}

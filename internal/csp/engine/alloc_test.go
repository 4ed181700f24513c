package engine

import (
	"math/rand"
	"testing"
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

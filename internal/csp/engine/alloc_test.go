//go:build !race

package engine

import (
	"math/rand"
	"testing"
)

// The compiled probe path must allocate nothing per query: all scratch is
// preallocated in the cursor, probes are uint64 map lookups, and Solve
// returns a cursor-owned buffer. (Excluded under -race: the race runtime
// instruments map access with allocations of its own.)
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
		cu.Count(pins)
	}); got != 0 {
		t.Fatalf("Count allocates %v per query, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		cu.Solve(nil)
	}); got != 0 {
		t.Fatalf("pin-free Solve allocates %v per query, want 0", got)
	}
}

package csp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hypertree/internal/decomp"
	"hypertree/internal/elim"
)

func TestCountFromTDAustralia(t *testing.T) {
	c := australia()
	h := c.Hypergraph()
	td := elim.TDFromOrdering(h, elim.MinFillOrdering(h.PrimalGraph(), nil))
	want := c.CountSolutionsBrute()
	if want == 0 {
		t.Fatal("Australia has 3-colorings")
	}
	if got := CountFromTD(c, td); got != want {
		t.Fatalf("CountFromTD = %d, brute = %d", got, want)
	}
}

func TestCountFromTDExample5(t *testing.T) {
	c := example5CSP()
	h := c.Hypergraph()
	td := elim.TDFromOrdering(h, []int{5, 4, 3, 2, 1, 0})
	want := c.CountSolutionsBrute()
	if got := CountFromTD(c, td); got != want {
		t.Fatalf("CountFromTD = %d, brute = %d", got, want)
	}
}

func TestCountFromTDUnsat(t *testing.T) {
	c := &CSP{NumVars: 2, Domains: [][]Value{{0}, {0}}}
	c.AddConstraint([]int{0, 1}, [][]Value{{0, 1}, {1, 0}})
	h := c.Hypergraph()
	td := elim.TDFromOrdering(h, []int{0, 1})
	if got := CountFromTD(c, td); got != 0 {
		t.Fatalf("unsat count = %d, want 0", got)
	}
}

func TestCountFromTDFreeVariables(t *testing.T) {
	// One binary constraint plus an unconstrained variable with |D| = 3:
	// counts multiply by 3.
	c := New(3, []Value{0, 1, 2})
	c.AddNotEqual(0, 1)
	h := c.Hypergraph()
	td := elim.TDFromOrdering(h, []int{2, 0, 1})
	want := c.CountSolutionsBrute() // 6 * 3 = 18
	if got := CountFromTD(c, td); got != want || got != 18 {
		t.Fatalf("count = %d, want %d (=18)", got, want)
	}
}

// 70 boolean variables, 69 of them in no bag: the true count 2^70 does not
// fit an int, so CountFromTD must saturate at math.MaxInt rather than wrap
// (2^70 mod 2^64 is 0).
func TestCountFromTDSaturates(t *testing.T) {
	c := New(70, []Value{0, 1})
	c.AddConstraint([]int{0}, [][]Value{{0}, {1}})
	td := &decomp.TreeDecomposition{
		Tree: decomp.Tree{Parent: []int{-1}, Root: 0},
		Bags: [][]int{{0}},
	}
	if got := CountFromTD(c, td); got != math.MaxInt {
		t.Fatalf("CountFromTD = %d, want math.MaxInt", got)
	}
}

// Property: CountFromTD equals brute-force counting on random CSPs over
// random ordering-induced decompositions.
func TestCountFromTDMatchesBruteProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCSP(rng)
		h := c.Hypergraph()
		td := elim.TDFromOrdering(h, rng.Perm(c.NumVars))
		return CountFromTD(c, td) == c.CountSolutionsBrute()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Crossword: fill a small crossword grid from a dictionary — a CSP with
// non-binary constraints (one per word slot), the classic case where
// generalized hypertree decompositions beat tree decompositions: each
// constraint covers a whole slot, so bags covered by two slot constraints
// solve in time polynomial in the dictionary, independent of slot length.
//
//	go run ./examples/crossword
package main

import (
	"fmt"
	"log"

	"hypertree/internal/core"
	"hypertree/internal/csp"
	"hypertree/internal/csp/engine"
	"hypertree/internal/decomp"
)

// Grid (letters are variables, numbered cells):
//
//	0 1 2
//	3 . 4
//	5 6 7
//
// Slots: across 0-1-2, across 5-6-7, down 0-3-5, down 2-4-7.
func main() {
	words := []string{"ear", "end", "era", "ere", "net", "ran", "tan", "tar", "ten", "ton"}

	// Letters map to values 0..25.
	domain := make([]csp.Value, 26)
	for i := range domain {
		domain[i] = i
	}
	problem := csp.New(8, domain)
	slots := [][]int{
		{0, 1, 2},
		{5, 6, 7},
		{0, 3, 5},
		{2, 4, 7},
	}
	for _, slot := range slots {
		var tuples [][]csp.Value
		for _, w := range words {
			if len(w) != len(slot) {
				continue
			}
			row := make([]csp.Value, len(w))
			for i, ch := range w {
				row[i] = int(ch - 'a')
			}
			tuples = append(tuples, row)
		}
		problem.AddConstraint(slot, tuples)
	}

	h := problem.Hypergraph()
	d, err := core.Decompose(h, core.Options{Algorithm: core.AlgBBGHW, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("crossword constraint hypergraph: %v\n", h)
	fmt.Printf("ghw = %d (exact: %v) vs treewidth bags of up to %d letters\n",
		d.Width, d.Exact, d.TD.Width()+1)

	// Compile the complete GHD and solve from it: per-node joins over word
	// lists, then Acyclic Solving — never enumerating 26^k letter
	// combinations.
	g := &decomp.GHD{}
	*g = *d.GHD
	g.Complete(h)
	plan, err := engine.CompileGHDBudget(problem, g, nil)
	if err != nil {
		log.Fatal(err)
	}
	sol, ok := plan.NewCursor().Solve(nil)
	if !ok {
		log.Fatal("no fill exists for this dictionary")
	}
	letter := func(v int) byte { return byte('a' + sol[v]) }
	fmt.Println("fill:")
	fmt.Printf("  %c %c %c\n", letter(0), letter(1), letter(2))
	fmt.Printf("  %c . %c\n", letter(3), letter(4))
	fmt.Printf("  %c %c %c\n", letter(5), letter(6), letter(7))
}

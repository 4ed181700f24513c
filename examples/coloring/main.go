// Coloring: model the map 3-coloring of Australia (thesis Example 1) as a
// CSP, decompose its constraint graph, and solve it backtrack-free from the
// tree decomposition: the compiled engine materializes one table per bag
// (join-tree clustering), reduces them bottom-up (Acyclic Solving), and
// reads a solution off top-down.
//
//	go run ./examples/coloring
package main

import (
	"fmt"
	"log"

	"hypertree/internal/core"
	"hypertree/internal/csp"
	"hypertree/internal/csp/engine"
	"hypertree/internal/elim"
)

func main() {
	regions := []string{"WA", "NT", "Q", "SA", "NSW", "V", "TAS"}
	colors := []string{"red", "green", "blue"}

	problem := csp.New(len(regions), []csp.Value{0, 1, 2})
	problem.VarNames = regions
	borders := [][2]int{
		{0, 1}, // WA–NT
		{0, 3}, // WA–SA
		{1, 2}, // NT–Q
		{1, 3}, // NT–SA
		{2, 3}, // Q–SA
		{2, 4}, // Q–NSW
		{3, 4}, // SA–NSW
		{3, 5}, // SA–V
		{4, 5}, // NSW–V
	}
	for _, b := range borders {
		problem.AddNotEqual(b[0], b[1])
	}

	h := problem.Hypergraph()
	fmt.Printf("constraint hypergraph: %d variables, %d constraints\n", h.N(), h.M())

	// Exact treewidth of the constraint graph via A*.
	d, err := core.Decompose(h, core.Options{Algorithm: core.AlgAStarTW, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("treewidth: %d (exact: %v) — solving costs O(n·d^%d)\n", d.Width, d.Exact, d.Width+1)

	// Compile the decomposition the search produced, then solve from it.
	td := elim.TDFromOrdering(h, d.Ordering)
	plan, err := engine.CompileBudget(problem, td, nil)
	if err != nil {
		log.Fatal(err)
	}
	solution, ok := plan.NewCursor().Solve(nil)
	if !ok {
		log.Fatal("unexpected: Australia is 3-colorable")
	}
	if !problem.Consistent(solution) {
		log.Fatal("solver returned an inconsistent assignment")
	}
	fmt.Println("coloring:")
	for i, r := range regions {
		fmt.Printf("  %-4s %s\n", r, colors[solution[i]])
	}
}

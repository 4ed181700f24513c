// SAT: thesis Example 2 — boolean satisfiability as a CSP. The formula
// φ = (¬x1 ∨ x2 ∨ x3) ∧ (x1 ∨ ¬x4) ∧ (¬x3 ∨ ¬x5) has an acyclic constraint
// hypergraph, so Acyclic Solving decides it in polynomial time directly from
// a join tree — a width-1 GHD with one constraint per node; larger random
// 3-CNF formulas are then solved through tree decompositions, with the
// solution count computed by the counting DP.
//
//	go run ./examples/sat
package main

import (
	"fmt"
	"log"
	"math/rand"

	"hypertree/internal/csp"
	"hypertree/internal/csp/engine"
	"hypertree/internal/decomp"
	"hypertree/internal/elim"
	"hypertree/internal/hypergraph"
)

func main() {
	// --- Thesis Example 2 -------------------------------------------------
	clauses := [][]int{
		{-1, 2, 3}, // ¬x1 ∨ x2 ∨ x3
		{1, -4},    // x1 ∨ ¬x4
		{-3, -5},   // ¬x3 ∨ ¬x5
	}
	problem := cnfToCSP(5, clauses)
	h := problem.Hypergraph()
	fmt.Printf("φ: %d variables, %d clauses, acyclic: %v\n", h.N(), h.M(), hypergraph.IsAcyclic(h))

	jt, ok := hypergraph.BuildJoinTree(h)
	if !ok {
		log.Fatal("example 2 hypergraph should be acyclic")
	}
	// A join tree is a GHD of width 1: node e holds constraint e's scope
	// and covers it with that one constraint.
	g := &decomp.GHD{TreeDecomposition: decomp.TreeDecomposition{
		Tree: decomp.Tree{Parent: jt.Parent, Root: jt.Root},
		Bags: make([][]int, h.M()),
	}, Lambdas: make([][]int, h.M())}
	for e := range g.Bags {
		g.Bags[e], g.Lambdas[e] = h.Edge(e), []int{e}
	}
	plan, err := engine.CompileGHDBudget(problem, g, nil)
	if err != nil {
		log.Fatal(err)
	}
	sol, ok := plan.NewCursor().Solve(nil)
	if !ok {
		log.Fatal("φ should be satisfiable")
	}
	fmt.Print("satisfying assignment:")
	for i, v := range sol {
		fmt.Printf(" x%d=%v", i+1, v == 1)
	}
	fmt.Println()
	// The thesis quotes the solution x1=t x2=t x3=f x4=t x5=f among others;
	// verify ours satisfies every clause.
	if !problem.Consistent(sol) {
		log.Fatal("inconsistent assignment")
	}

	// --- A cyclic random 3-CNF, solved through a tree decomposition --------
	rng := rand.New(rand.NewSource(7))
	n, m := 18, 30
	var rc [][]int
	for i := 0; i < m; i++ {
		vars := rng.Perm(n)[:3]
		var cl []int
		for _, v := range vars {
			lit := v + 1
			if rng.Intn(2) == 0 {
				lit = -lit
			}
			cl = append(cl, lit)
		}
		rc = append(rc, cl)
	}
	p2 := cnfToCSP(n, rc)
	h2 := p2.Hypergraph()
	order := elim.MinFillOrdering(h2.PrimalGraph(), rng)
	td := elim.TDFromOrdering(h2, order)
	fmt.Printf("\nrandom 3-CNF: %d vars, %d clauses, decomposition width %d\n",
		n, m, td.Width())
	plan2, err := engine.CompileBudget(p2, td, nil)
	if err != nil {
		log.Fatal(err)
	}
	if plan2.Stats().Satisfiable {
		count, _ := plan2.NewCursor().CountExact(nil)
		fmt.Println("satisfiable; model count =", count)
	} else {
		fmt.Println("unsatisfiable (proved via the decomposition)")
	}
}

// cnfToCSP turns clauses (1-based literals, negative = negated) into a CSP
// with one constraint per clause listing its satisfying assignments.
func cnfToCSP(numVars int, clauses [][]int) *csp.CSP {
	c := csp.New(numVars, []csp.Value{0, 1})
	for _, cl := range clauses {
		scope := make([]int, len(cl))
		for i, lit := range cl {
			v := lit
			if v < 0 {
				v = -v
			}
			scope[i] = v - 1
		}
		var tuples [][]csp.Value
		total := 1 << len(cl)
		for t := 0; t < total; t++ {
			vals := make([]csp.Value, len(cl))
			satisfied := false
			for i, lit := range cl {
				vals[i] = (t >> i) & 1
				if (lit > 0 && vals[i] == 1) || (lit < 0 && vals[i] == 0) {
					satisfied = true
				}
			}
			if satisfied {
				tuples = append(tuples, vals)
			}
		}
		c.AddConstraint(scope, tuples)
	}
	return c
}

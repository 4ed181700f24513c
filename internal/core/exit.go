package core

import (
	"math/rand"
	"sort"

	"hypertree/internal/budget"
	"hypertree/internal/decomp"
	"hypertree/internal/setcover"
)

// exitGHD is the exit routine of every ghw run and of every portfolio
// member with an ordering of its own (a member without one returns no
// decomposition; see decompose): it covers the bags of td, the
// vertex-elimination decomposition of the run's ordering with its nested
// bags contracted (see exit), through the run's own cover engine eng. The
// GHD is built on td's own tree and bags, so the portfolio's one
// GHD.Validate of the winner checks both.
//
// Every bag first gets a greedy cover. claim is the width the run scored
// this ordering at; 0 marks a fallback ordering the run never scored, which
// keeps its greedy covers. With a claim, two passes follow:
//
//   - While b is live, covers are tightened exactly, widest bags first.
//     Each search polls b, and a bag whose search is cut keeps its cover;
//     the cut has latched b's stop reason, so the run reports it. A pass
//     that completes leaves every bag with its minimum cover — exactly the
//     λ-set elim.GHDFromOrdering(…, exact=true) picks for that bag, at the
//     width its uncontracted tree gets: a contracted bag lies inside a
//     kept one, and minimum covers are monotone under ⊆.
//   - Any bag still covered wider than claim gets a cover within it. The run
//     proved one exists when it scored the claim, and CoverWithin stops at
//     the first it meets, so this costs no more than that proof did, also
//     after the deadline. The returned width is therefore never above claim.
//
// After the stop a bag is therefore covered at most twice: greedily, then
// within the claim. late counts the λ-sets computed after b stopped; the
// greedy pass counts whole when it ends after the stop.
func exitGHD(eng *setcover.Engine, td *decomp.TreeDecomposition, claim int, b *budget.B, rng *rand.Rand) (g *decomp.GHD, late int, err error) {
	g, err = decomp.FromTreeDecompositionWithEngine(eng, td, decomp.CoverGreedy, rng)
	if err != nil {
		return nil, 0, err
	}
	if b.Stopped() {
		late = len(g.Lambdas)
	}
	if claim <= 0 {
		return g, late, nil
	}
	sc := eng.NewScratch()
	widest := make([]int, len(g.Lambdas))
	for i := range widest {
		widest[i] = i
	}
	sort.SliceStable(widest, func(x, y int) bool { return len(g.Lambdas[widest[x]]) > len(g.Lambdas[widest[y]]) })
	for _, i := range widest {
		if b.Stopped() {
			break
		}
		c, cut := eng.ExactCover(sc, g.Bags[i], b)
		if cut {
			break
		}
		g.Lambdas[i] = c
	}
	for i, l := range g.Lambdas {
		if len(l) > claim {
			if b.Stopped() {
				late++
			}
			if c := eng.CoverWithin(sc, g.Bags[i], claim); c != nil {
				g.Lambdas[i] = c
			}
		}
	}
	return g, late, nil
}

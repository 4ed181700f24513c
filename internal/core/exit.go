package core

import (
	"sort"

	"hypertree/internal/budget"
	"hypertree/internal/decomp"
	"hypertree/internal/setcover"
)

// tighten is the exit routine's second half, on g, the greedy GHD a run
// handed off (see handOff), through the run's own cover engine eng. claim
// is the width the run scored its ordering at; 0 marks a fallback ordering
// the run never scored, which keeps its greedy covers. With a claim, two
// passes follow:
//
//   - While b is live, covers are tightened exactly, widest bags first.
//     Each search polls b. A search it cuts hands back the best cover it
//     met, which the bag keeps when it is narrower; the cut has latched b's
//     stop reason, so the run reports it, and the pass ends there. A pass
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
// within the claim. late counts the λ-sets the second pass computed after b
// stopped.
func tighten(eng *setcover.Engine, g *decomp.GHD, claim int, b *budget.B) (late int) {
	if claim <= 0 {
		return 0
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
			if len(c) < len(g.Lambdas[i]) {
				g.Lambdas[i] = c
			}
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
	return late
}

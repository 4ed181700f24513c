package core

import (
	"testing"
	"time"

	"hypertree/internal/hypergraph"
)

// TestPostStopWork is the deterministic companion of the deadline smoke
// test's wall-clock bound: it counts, through each member's stats, the
// eliminations and λ-set covers a portfolio race does after its budget
// stopped, so a post-deadline regression shows under any machine load. It
// races the default portfolio on decompose-deadline-shaped circuits (60
// signals, 62 gates) at a 20 ms deadline and on the registry's c880
// (RandomCircuit(383, 443, 4005)) at 250 ms, and asserts:
//
//   - a member that returned no decomposition did no such work;
//   - a member that did returned a decomposition no wider than the width
//     its own run scored: it handed off its own ordering, never a fallback
//     that cannot win;
//   - the winner's exit built at most one tree decomposition and covered
//     each bag at most twice (greedily, then within its claim).
func TestPostStopWork(t *testing.T) {
	type input struct {
		name     string
		h        *hypergraph.Hypergraph
		deadline time.Duration
	}
	var inputs []input
	for seed := int64(1); seed <= 20; seed++ {
		inputs = append(inputs, input{"circuit60", hypergraph.RandomCircuit(60, 62, seed), 20 * time.Millisecond})
	}
	if !testing.Short() {
		inputs = append(inputs, input{"c880", hypergraph.RandomCircuit(383, 443, 4005), 250 * time.Millisecond})
	}
	none, losers := 0, 0
	for i, in := range inputs {
		opts := Options{Algorithm: AlgPortfolio, Timeout: in.deadline, Seed: 1}
		rc := race(in.h, opts, DefaultPortfolio)
		won, err := pickWinner(in.h, rc.results)
		if err != nil {
			t.Fatalf("%s #%d: %v", in.name, i, err)
		}
		for _, r := range rc.results {
			if r.err != nil {
				t.Fatalf("%s #%d: %s: %v", in.name, i, r.alg, r.err)
			}
			st := r.d.Stats.Snapshot()
			elims, covers := st.PostStopEliminations, st.PostStopCovers
			if r.d.GHD == nil {
				none++
				if elims != 0 || covers != 0 {
					t.Errorf("%s #%d: %s returned no decomposition but did %d eliminations and %d covers after the stop",
						in.name, i, r.alg, elims, covers)
				}
				continue
			}
			if r.alg != won.alg && elims > 0 {
				losers++
			}
			if elims+covers > 0 && r.d.Width > st.FinalWidth {
				t.Errorf("%s #%d: %s worked after the stop (%d eliminations, %d covers) for a width-%d decomposition its run never scored (it scored %d)",
					in.name, i, r.alg, elims, covers, r.d.Width, st.FinalWidth)
			}
		}
		st := won.d.Stats.Snapshot()
		bags := int64(len(won.d.GHD.Bags))
		if st.PostStopEliminations > int64(in.h.N()) || st.PostStopCovers > 2*bags {
			t.Errorf("%s #%d: winner %s did %d eliminations and %d covers after the stop for %d bags; at most %d and %d",
				in.name, i, won.alg, st.PostStopEliminations, st.PostStopCovers, bags, in.h.N(), 2*bags)
		}
	}
	if none == 0 {
		t.Error("no member returned without a decomposition; the first assertion checked nothing")
	}
	t.Logf("%d member results without a decomposition; %d losing members handed off their own ordering after the stop", none, losers)
}

package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"hypertree/internal/budget"
	"hypertree/internal/decomp"
	"hypertree/internal/elim"
	"hypertree/internal/hypergraph"
	"hypertree/internal/setcover"
)

// coveredRandom is a seeded random hypergraph with a unary edge on every
// vertex no edge covers, so ghw is defined.
func coveredRandom(n, m int, seed int64) *hypergraph.Hypergraph {
	h := hypergraph.RandomHypergraph(n, m, 2, 4, seed)
	for v := 0; v < n; v++ {
		if len(h.IncidentEdges(v)) == 0 {
			h.AddEdge(v)
		}
	}
	return h
}

// exitInstances are the λ-set pinning corpus: random hypergraphs and the
// 24-signal circuits the serving benchmark's query workloads decompose.
func exitInstances() map[string]*hypergraph.Hypergraph {
	hs := map[string]*hypergraph.Hypergraph{}
	for seed := int64(1); seed <= 12; seed++ {
		hs[fmt.Sprintf("random_%d", seed)] = coveredRandom(10+int(seed), 12+int(seed), seed)
		hs[fmt.Sprintf("circuit24_%d", seed)] = hypergraph.RandomCircuit(24, 26, seed)
	}
	return hs
}

// TestExitKeepsExactLambdas pins the completed exit: when the run's budget
// outlives the exact pass, the tree is the returned ordering's elimination
// decomposition with its nested bags contracted, and every kept bag ends
// with the λ-set elim.GHDFromOrdering(…, exact=true) picks for that bag, so
// completed runs (serial greedy, the query workloads' decompose path, a
// closed bb-ghw) return the covers they did before the pass was budgeted,
// at the width the uncontracted tree's exact covers give. bb-ghw runs on
// the random hypergraphs only: closing the circuits takes it up to seconds
// each.
func TestExitKeepsExactLambdas(t *testing.T) {
	for name, h := range exitInstances() {
		algs := []Algorithm{AlgGreedy}
		if strings.HasPrefix(name, "random") {
			algs = append(algs, AlgBBGHW)
		}
		for _, alg := range algs {
			d, err := Decompose(h, Options{Algorithm: alg, Seed: 1, Timeout: time.Minute})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, alg, err)
			}
			if d.Interrupted {
				t.Fatalf("%s/%s: interrupted (%s); the corpus must complete", name, alg, d.Stop)
			}
			want, err := elim.GHDFromOrdering(h, d.Ordering, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			ref := elim.TDFromOrdering(h, d.Ordering).Compact()
			if !reflect.DeepEqual(d.GHD.Bags, ref.Bags) || !reflect.DeepEqual(d.GHD.Parent, ref.Parent) || d.GHD.Root != ref.Root {
				t.Fatalf("%s/%s: exit tree differs from the ordering's compacted elimination tree", name, alg)
			}
			for i, bag := range d.GHD.Bags {
				j := slices.IndexFunc(want.Bags, func(b []int) bool { return slices.Equal(b, bag) })
				if j < 0 {
					t.Fatalf("%s/%s: kept bag %v is no bag of the elimination tree", name, alg, bag)
				}
				if !slices.Equal(d.GHD.Lambdas[i], want.Lambdas[j]) {
					t.Fatalf("%s/%s: bag %v has λ-set %v, want GHDFromOrdering's %v", name, alg, bag, d.GHD.Lambdas[i], want.Lambdas[j])
				}
			}
			if d.Width != want.Width() {
				t.Fatalf("%s/%s: width %d, exact covers give %d", name, alg, d.Width, want.Width())
			}
		}
	}
}

// nestedEdges counts the tree edges of td whose one bag contains the
// other.
func nestedEdges(td *decomp.TreeDecomposition) int {
	within := func(a, b []int) bool {
		for _, v := range a {
			if _, ok := slices.BinarySearch(b, v); !ok {
				return false
			}
		}
		return true
	}
	n := 0
	for i, p := range td.Parent {
		if p >= 0 && (within(td.Bags[i], td.Bags[p]) || within(td.Bags[p], td.Bags[i])) {
			n++
		}
	}
	return n
}

// TestExitKeepsOnlyMaximalBags is the count gate on the exit's contraction:
// serial greedy on 64 query-cold-shaped circuits (24 signals) and the
// default portfolio at a 20 ms deadline on 40 decompose-deadline-shaped
// ones (60 signals) hand off trees without a single edge between nested
// bags, so no cover, table or semijoin after the exit is spent on a bag
// that cannot set the width. The elimination trees they come from hold
// such edges: about half the nodes of a 24-signal circuit's.
func TestExitKeepsOnlyMaximalBags(t *testing.T) {
	type input struct {
		alg Algorithm
		h   *hypergraph.Hypergraph
	}
	var inputs []input
	for seed := int64(1); seed <= 64; seed++ {
		inputs = append(inputs, input{AlgGreedy, hypergraph.RandomCircuit(24, 26, seed)})
	}
	for seed := int64(1); seed <= 40; seed++ {
		inputs = append(inputs, input{AlgPortfolio, hypergraph.RandomCircuit(60, 62, seed)})
	}
	nested, kept, elimBags := 0, 0, 0
	for _, in := range inputs {
		opts := Options{Algorithm: in.alg, Seed: 1, Timeout: time.Minute}
		if in.alg == AlgPortfolio {
			opts.Timeout = 20 * time.Millisecond
		}
		d, err := Decompose(in.h, opts)
		if err != nil {
			t.Fatal(err)
		}
		if &d.GHD.Bags[0][0] != &d.TD.Bags[0][0] || len(d.GHD.Bags) != len(d.TD.Bags) {
			t.Fatalf("%s: the GHD is not built on the returned tree decomposition", in.alg)
		}
		nested += nestedEdges(d.TD)
		kept += len(d.TD.Bags)
		elimBags += len(elim.TDFromOrdering(in.h, d.Ordering).Bags)
	}
	if nested != 0 {
		t.Fatalf("the exits handed off %d tree edges between nested bags; want none", nested)
	}
	t.Logf("%d runs kept %d of their orderings' %d elimination bags", len(inputs), kept, elimBags)
}

// TestExitKeepsClaim is the stopped exit: after the deadline the routine
// runs no tightening pass, yet never returns wider than the width the run
// scored, whatever tie-breaking its greedy covers take. An ordering scored
// through a greedy evaluator under one rng is covered under many others; a
// fallback ordering (claim 0) keeps the greedy covers as they are.
func TestExitKeepsClaim(t *testing.T) {
	stopped := budget.New(context.Background(), budget.Limits{})
	stopped.Stop(budget.StopDeadline)
	for name, h := range exitInstances() {
		eng := setcover.NewEngine(h, setcover.DefaultCacheCapacity)
		rng := rand.New(rand.NewSource(7))
		order := rng.Perm(h.N())
		claim := elim.NewGHWEvaluatorWithEngine(eng, false, rng).Width(order)
		td := elim.TDFromOrdering(h, order)
		sc := eng.NewScratch()
		for seed := int64(0); seed < 8; seed++ {
			g, late, err := exitGHD(eng, td, claim, stopped, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			if late < len(td.Bags) || late > 2*len(td.Bags) {
				t.Fatalf("%s: stopped exit counted %d late covers for %d bags, want one or two per bag", name, late, len(td.Bags))
			}
			if err := g.Validate(h); err != nil {
				t.Fatalf("%s: invalid exit GHD: %v", name, err)
			}
			if g.Width() > claim {
				t.Fatalf("%s seed %d: exit width %d above the scored claim %d", name, seed, g.Width(), claim)
			}
			fb, late, err := exitGHD(eng, td, 0, stopped, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			if late != len(td.Bags) {
				t.Fatalf("%s: stopped fallback exit counted %d late covers for %d bags", name, late, len(td.Bags))
			}
			greedy := rand.New(rand.NewSource(seed))
			for i, bag := range td.Bags {
				if want := eng.GreedyCover(sc, bag, greedy); !reflect.DeepEqual(fb.Lambdas[i], want) {
					t.Fatalf("%s: fallback bag %d covered %v, want the greedy %v", name, i, fb.Lambdas[i], want)
				}
			}
		}
	}
}

// TestGreedyReportsExact: a width that meets the proven lower bound is
// optimal, so serial greedy says so, as a completed run.
func TestGreedyReportsExact(t *testing.T) {
	for name, h := range map[string]*hypergraph.Hypergraph{
		"adder_15":  hypergraph.Adder(15),
		"clique_10": hypergraph.CliqueHypergraph(10),
	} {
		d, err := Decompose(h, Options{Algorithm: AlgGreedy, Seed: 1, Timeout: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		validateAnytime(t, h, AlgGreedy, d)
		if !d.Exact || d.Interrupted || d.Stop != budget.StopNone || d.Width != d.LowerBound {
			t.Fatalf("%s: width %d lb %d exact %v stop %q, want a completed exact run",
				name, d.Width, d.LowerBound, d.Exact, d.Stop)
		}
	}
}

// TestGreedyDeadlineDegrades: a greedy run whose exact pass outlasts its
// budget is cut there, by the deadline or by a cancel (a client gone, a
// daemon draining), comes back degraded with that stop, keeps its scored
// width, and counts the pass in Elapsed. The b10-sized circuit's widest bag
// alone takes seconds to cover exactly.
func TestGreedyDeadlineDegrades(t *testing.T) {
	h := hypergraph.RandomCircuit(189, 200, 4003)
	const limit = 150 * time.Millisecond
	for _, stop := range []budget.StopReason{budget.StopDeadline, budget.StopCanceled} {
		opts := Options{Algorithm: AlgGreedy, Seed: 1, Timeout: limit}
		if stop == budget.StopCanceled {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			time.AfterFunc(limit, cancel)
			opts.Ctx, opts.Timeout = ctx, time.Minute
		}
		start := time.Now()
		d, err := Decompose(h, opts)
		took := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		validateAnytime(t, h, AlgGreedy, d)
		if !d.Interrupted || d.Stop != stop || d.Exact {
			t.Fatalf("interrupted %v stop %q exact %v, want a run degraded by %q", d.Interrupted, d.Stop, d.Exact, stop)
		}
		if d.Elapsed < limit {
			t.Fatalf("%s: Elapsed %v leaves out the exact pass the budget cut", stop, d.Elapsed)
		}
		if !raceDetectorEnabled && took > limit+time.Second {
			t.Fatalf("%s: returned after %v, the cut pass overran the %v budget", stop, took, limit)
		}
	}
}

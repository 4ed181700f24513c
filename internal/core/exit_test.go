package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"hypertree/internal/budget"
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
// outlives the exact pass, every bag ends with the λ-set
// elim.GHDFromOrdering(…, exact=true) picks for the returned ordering, so
// completed runs (serial greedy, the query workloads' decompose path, a
// closed bb-ghw) return the covers they did before the pass was budgeted.
// bb-ghw runs on the random hypergraphs only: closing the circuits takes it
// up to seconds each.
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
			if !reflect.DeepEqual(d.GHD.Bags, want.Bags) || !reflect.DeepEqual(d.GHD.Parent, want.Parent) {
				t.Fatalf("%s/%s: exit tree differs from the ordering's elimination tree", name, alg)
			}
			if !reflect.DeepEqual(d.GHD.Lambdas, want.Lambdas) {
				t.Fatalf("%s/%s: exit λ-sets %v, want GHDFromOrdering's %v", name, alg, d.GHD.Lambdas, want.Lambdas)
			}
			if d.Width != want.Width() {
				t.Fatalf("%s/%s: width %d, exact covers give %d", name, alg, d.Width, want.Width())
			}
		}
	}
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

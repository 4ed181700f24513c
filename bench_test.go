package hypertree

// One benchmark per thesis evaluation table. Each benchmark regenerates its
// table at the smoke scale per iteration and reports the number of table
// rows produced; run cmd/experiments for the full, human-readable tables at
// larger scales.
//
//	go test -bench=. -benchmem
//
// The additional ablation benchmarks at the bottom measure the pruning
// machinery's effect on the exact searches (DESIGN.md "ablation benches"),
// and the micro benchmarks cover the hot data structures.

import (
	"math/rand"
	"testing"

	"hypertree/internal/bench"
	"hypertree/internal/bounds"
	"hypertree/internal/elim"
	"hypertree/internal/elimgraph"
	"hypertree/internal/ga"
	"hypertree/internal/hypergraph"
	"hypertree/internal/search"
	"hypertree/internal/setcover"
)

func benchTable(b *testing.B, id string) {
	b.Helper()
	runner, ok := bench.Tables[id]
	if !ok {
		b.Fatalf("no runner for table %s", id)
	}
	rows := 0
	for i := 0; i < b.N; i++ {
		t := runner(bench.Smoke())
		rows = len(t.Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

func BenchmarkTable5_1(b *testing.B) { benchTable(b, "5.1") }
func BenchmarkTable5_2(b *testing.B) { benchTable(b, "5.2") }
func BenchmarkTable6_1(b *testing.B) { benchTable(b, "6.1") }
func BenchmarkTable6_2(b *testing.B) { benchTable(b, "6.2") }
func BenchmarkTable6_3(b *testing.B) { benchTable(b, "6.3") }
func BenchmarkTable6_4(b *testing.B) { benchTable(b, "6.4") }
func BenchmarkTable6_5(b *testing.B) { benchTable(b, "6.5") }
func BenchmarkTable6_6(b *testing.B) { benchTable(b, "6.6") }
func BenchmarkTable7_1(b *testing.B) { benchTable(b, "7.1") }
func BenchmarkTable7_2(b *testing.B) { benchTable(b, "7.2") }
func BenchmarkTable8_1(b *testing.B) { benchTable(b, "8.1") }
func BenchmarkTable8_2(b *testing.B) { benchTable(b, "8.2") }
func BenchmarkTable9_1(b *testing.B) { benchTable(b, "9.1") }
func BenchmarkTable9_2(b *testing.B) { benchTable(b, "9.2") }

// ---- Ablations: effect of the pruning machinery on the exact searches ----

func benchBBTW(b *testing.B, opts search.Options) {
	g := hypergraph.Queen(5)
	for i := 0; i < b.N; i++ {
		opts.Seed = int64(i)
		r := search.BBTreewidth(g, opts)
		if !r.Exact || r.Width != 18 {
			b.Fatalf("queen5 treewidth = %d exact=%v", r.Width, r.Exact)
		}
	}
}

func BenchmarkAblationBBTWFull(b *testing.B) { benchBBTW(b, search.Options{}) }
func BenchmarkAblationBBTWNoPR2(b *testing.B) {
	benchBBTW(b, search.Options{DisablePR2: true})
}
func BenchmarkAblationBBTWNoReductions(b *testing.B) {
	benchBBTW(b, search.Options{DisableReductions: true})
}
func BenchmarkAblationBBTWNoNodeLB(b *testing.B) {
	benchBBTW(b, search.Options{DisableNodeLB: true})
}
func BenchmarkAblationBBTWPlain(b *testing.B) {
	benchBBTW(b, search.Options{DisablePR2: true, DisableReductions: true, DisableNodeLB: true})
}

func benchBBGHW(b *testing.B, opts search.Options) {
	// grid2d_6 closes in well under a second even with pruning disabled;
	// larger grids without the node lower bound run essentially unbounded.
	h := hypergraph.Grid2D(6)
	for i := 0; i < b.N; i++ {
		opts.Seed = int64(i)
		r := search.BBGHW(h, opts)
		if !r.Exact {
			b.Fatalf("grid2d_6 not closed")
		}
	}
}

func BenchmarkAblationBBGHWFull(b *testing.B) { benchBBGHW(b, search.Options{}) }
func BenchmarkAblationBBGHWNoPR2(b *testing.B) {
	benchBBGHW(b, search.Options{DisablePR2: true})
}
func BenchmarkAblationBBGHWNoNodeLB(b *testing.B) {
	benchBBGHW(b, search.Options{DisableNodeLB: true})
}

// ---- Micro benchmarks of the hot paths ----

func BenchmarkElimGraphEliminateRestore(b *testing.B) {
	g := hypergraph.Queen(8)
	e := elimgraph.New(g)
	order := rand.New(rand.NewSource(1)).Perm(g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range order {
			e.Eliminate(v)
		}
		e.Reset()
	}
}

func BenchmarkWidthEvaluation(b *testing.B) {
	g := hypergraph.Queen(8)
	e := elimgraph.New(g)
	order := rand.New(rand.NewSource(1)).Perm(g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		elim.Width(e, order)
	}
}

func BenchmarkGHWEvaluationGreedy(b *testing.B) {
	h := hypergraph.Grid2D(14)
	ev := elim.NewGHWEvaluator(h, false, rand.New(rand.NewSource(1)))
	order := rand.New(rand.NewSource(2)).Perm(h.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Width(order)
	}
}

func BenchmarkGHWEvaluationExact(b *testing.B) {
	h := hypergraph.Grid2D(10)
	ev := elim.NewGHWEvaluator(h, true, nil)
	order := rand.New(rand.NewSource(2)).Perm(h.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Width(order)
	}
}

func BenchmarkGreedySetCover(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	universe := make([]int, 40)
	for i := range universe {
		universe[i] = i
	}
	sets := make([][]int, 60)
	for i := range sets {
		for j := 0; j < 5; j++ {
			sets[i] = append(sets[i], rng.Intn(40))
		}
	}
	h := hypergraph.NewHypergraph(len(universe))
	for _, s := range sets {
		h.AddEdge(s...)
	}
	eng := setcover.NewEngine(h, 0)
	sc := eng.NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.GreedyCover(sc, universe, rng)
	}
}

func BenchmarkMinorMinWidth(b *testing.B) {
	g := hypergraph.Queen(8)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bounds.MinorMinWidth(g, rng)
	}
}

func BenchmarkMinFillOrdering(b *testing.B) {
	g := hypergraph.Queen(8)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		elim.MinFillOrdering(g, rng)
	}
}

func BenchmarkGAGeneration(b *testing.B) {
	g := hypergraph.Queen(6)
	cfg := ga.Config{
		PopulationSize: 50, CrossoverRate: 1, MutationRate: 0.3,
		TournamentSize: 3, MaxIterations: 10,
		Crossover: ga.POS, Mutation: ga.ISM,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		ga.Treewidth(g, cfg)
	}
}

func BenchmarkCrossoverOperators(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p1 := rng.Perm(200)
	p2 := rng.Perm(200)
	for _, op := range ga.CrossoverOps {
		op := op
		b.Run(op.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ga.Crossover(op, p1, p2, rng)
			}
		})
	}
}

func BenchmarkMutationOperators(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, op := range ga.MutationOps {
		op := op
		b.Run(op.String(), func(b *testing.B) {
			p := rng.Perm(200)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ga.Mutate(op, p, rng)
			}
		})
	}
}

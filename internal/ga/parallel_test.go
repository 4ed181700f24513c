package ga

import (
	"runtime"
	"sync/atomic"
	"testing"

	"hypertree/internal/budget"
	"hypertree/internal/hypergraph"
)

// With a deterministic evaluator the GA's trajectory depends only on fit
// values, so any worker count must reproduce the serial run exactly.
func TestRunParallelMatchesSerial(t *testing.T) {
	g := hypergraph.Queen(5)
	serial := Run(g.N(), NewTreewidthEvaluator(g), smallConfig(7))
	for _, workers := range []int{1, 3, 8} {
		cfg := smallConfig(7)
		cfg.Workers = workers
		par := RunParallel(g.N(), func(int) Evaluator { return NewTreewidthEvaluator(g) }, cfg)
		if par.BestWidth != serial.BestWidth {
			t.Fatalf("workers=%d: width %d, want %d", workers, par.BestWidth, serial.BestWidth)
		}
		if par.Generations != serial.Generations || par.Evaluations != serial.Evaluations {
			t.Fatalf("workers=%d: gen/evals %d/%d, want %d/%d",
				workers, par.Generations, par.Evaluations, serial.Generations, serial.Evaluations)
		}
		if len(par.History) != len(serial.History) {
			t.Fatalf("workers=%d: history length %d, want %d", workers, len(par.History), len(serial.History))
		}
		for i := range par.History {
			if par.History[i] != serial.History[i] {
				t.Fatalf("workers=%d: history[%d] = %d, want %d", workers, i, par.History[i], serial.History[i])
			}
		}
	}
}

// A parallel run under a tight evaluation budget must stop with the budget
// reason and still return a validly scored ordering (anytime contract).
func TestRunParallelAnytimeUnderBudget(t *testing.T) {
	g := hypergraph.Queen(5)
	cfg := smallConfig(8)
	cfg.Workers = 4
	cfg.Budget = budget.New(nil, budget.Limits{MaxNodes: 95}) // mid-generation cut
	r := RunParallel(g.N(), func(int) Evaluator { return NewTreewidthEvaluator(g) }, cfg)
	if r.Stop == budget.StopNone {
		t.Fatal("expected a budget stop reason")
	}
	if len(r.BestOrdering) != g.N() {
		t.Fatalf("ordering has %d entries", len(r.BestOrdering))
	}
	if w := NewTreewidthEvaluator(g).Evaluate(r.BestOrdering); w != r.BestWidth {
		t.Fatalf("reported %d but ordering evaluates to %d", r.BestWidth, w)
	}
	if r.Evaluations > 95+4 {
		// Each worker may finish the evaluation in flight when the budget
		// trips, but nothing beyond that.
		t.Fatalf("evaluations %d exceed the budget by more than the worker count", r.Evaluations)
	}
}

// GHW with workers shares one cover engine: the run must produce a sound
// width and report cache traffic.
func TestGHWParallelSharesCoverCache(t *testing.T) {
	tri := hypergraph.NewHypergraph(3)
	tri.AddEdge(0, 1)
	tri.AddEdge(1, 2)
	tri.AddEdge(0, 2)
	cfg := smallConfig(9)
	cfg.Workers = 4
	r := GHW(tri, cfg)
	if r.BestWidth != 2 {
		t.Fatalf("parallel GA ghw on triangle = %d, want 2", r.BestWidth)
	}
	if r.CoverCacheHits == 0 || r.CoverCacheMisses == 0 {
		t.Fatalf("no cover cache traffic: %+v hits, %+v misses", r.CoverCacheHits, r.CoverCacheMisses)
	}
}

// SAIGA's islands share one engine; the counters must land in the result.
func TestSAIGAGHWReportsCoverCache(t *testing.T) {
	tri := hypergraph.NewHypergraph(3)
	tri.AddEdge(0, 1)
	tri.AddEdge(1, 2)
	tri.AddEdge(0, 2)
	cfg := SAIGADefaults()
	cfg.Islands = 3
	cfg.IslandPop = 20
	cfg.Epochs = 3
	cfg.EpochLength = 4
	cfg.Seed = 10
	r := SAIGAGHW(tri, cfg)
	if r.BestWidth != 2 {
		t.Fatalf("SAIGA ghw on triangle = %d, want 2", r.BestWidth)
	}
	if r.CoverCacheHits == 0 {
		t.Fatal("islands produced no cover cache hits")
	}
}

// SAIGA's fitness evaluation splits each island's population across
// cfg.Workers goroutines with tick-first budget semantics, so with a
// deterministic evaluator every worker count must reproduce the serial
// trajectory exactly. This is the regression for the plumbing bug where
// core's saigaDefaults dropped Options.Workers on the floor: SAIGAConfig had
// no Workers field to receive it.
func TestSAIGAWorkersMatchSerial(t *testing.T) {
	g := hypergraph.Queen(5)
	base := SAIGADefaults()
	base.Islands = 2
	base.IslandPop = 12
	base.Epochs = 3
	base.EpochLength = 4
	base.Seed = 11
	serial := saigaTreewidth(g, base)
	for _, workers := range []int{2, 4} {
		cfg := base
		cfg.Workers = workers
		par := saigaTreewidth(g, cfg)
		if par.BestWidth != serial.BestWidth {
			t.Fatalf("workers=%d: width %d, want %d", workers, par.BestWidth, serial.BestWidth)
		}
		if par.Evaluations != serial.Evaluations {
			t.Fatalf("workers=%d: evaluations %d, want %d", workers, par.Evaluations, serial.Evaluations)
		}
		if w := NewTreewidthEvaluator(g).Evaluate(par.BestOrdering); w != par.BestWidth {
			t.Fatalf("workers=%d: reported %d but ordering evaluates to %d", workers, par.BestWidth, w)
		}
	}
}

// peakProbe wraps an evaluator and records the most Evaluate calls in flight
// at once across every probe sharing its counters. The yield inside the call
// lets any other runnable evaluation overlap it, even at GOMAXPROCS 1.
type peakProbe struct {
	Evaluator
	cur, peak *atomic.Int64
}

func (p peakProbe) Evaluate(order []int) int {
	n := p.cur.Add(1)
	defer p.cur.Add(-1)
	for m := p.peak.Load(); n > m; m = p.peak.Load() {
		if p.peak.CompareAndSwap(m, n) {
			break
		}
	}
	runtime.Gosched()
	return p.Evaluator.Evaluate(order)
}

// SAIGA's islands evolve in turn, so a run never has more evaluations in
// flight than one island's scoring workers: one at Workers 0 or 1 (a
// portfolio member runs at 0 and must not fan out beyond its own goroutine),
// at most Workers above that.
func TestSAIGAIslandsEvolveInTurn(t *testing.T) {
	g := hypergraph.Queen(5)
	for _, workers := range []int{0, 1, 2} {
		var cur, peak atomic.Int64
		cfg := SAIGADefaults()
		cfg.IslandPop = 12
		cfg.Epochs = 3
		cfg.EpochLength = 4
		cfg.Seed = 13
		cfg.Workers = workers
		r := SAIGA(g.N(), func(int, int) Evaluator {
			return peakProbe{Evaluator: NewTreewidthEvaluator(g), cur: &cur, peak: &peak}
		}, cfg)
		if r.Evaluations == 0 {
			t.Fatalf("workers=%d: no evaluations ran", workers)
		}
		if p, most := peak.Load(), int64(max(workers, 1)); p < 1 || p > most {
			t.Fatalf("workers=%d: %d evaluations in flight at once, want 1..%d", workers, p, most)
		}
	}
}

// SAIGAGHW with per-island worker pools stays sound: the returned width
// matches a replay of the winning ordering.
func TestSAIGAGHWWorkersSound(t *testing.T) {
	h := hypergraph.Grid2D(4)
	cfg := SAIGADefaults()
	cfg.Islands = 2
	cfg.IslandPop = 10
	cfg.Epochs = 2
	cfg.EpochLength = 3
	cfg.Workers = 4
	cfg.Seed = 12
	r := SAIGAGHW(h, cfg)
	if len(r.BestOrdering) != h.N() {
		t.Fatalf("ordering has %d entries, want %d", len(r.BestOrdering), h.N())
	}
	if r.BestWidth < 2 {
		t.Fatalf("implausible ghw %d for Grid2D(4)", r.BestWidth)
	}
}

package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"hypertree/internal/budget"
	"hypertree/internal/budget/faultinject"
	"hypertree/internal/ga"
	"hypertree/internal/hypergraph"
)

// anytimeInstance is large enough that no algorithm closes it at the root
// (tw bounds 6..13, ghw bounds 2..7) yet small enough that validation and
// greedy fallbacks are instant.
func anytimeInstance() *hypergraph.Hypergraph {
	return hypergraph.Grid2D(10) // 50 vertices, 50 edges, covered
}

// validateAnytime checks the anytime contract: a non-nil decomposition whose
// TD (and GHD, for the ghw algorithms) validates against h. It also pins the
// exit contract: a ghw run returns the width its GHD achieves, a lower bound
// no wider than that width, and no width wider than the narrowest one in its
// own timeline.
func validateAnytime(t *testing.T, h *hypergraph.Hypergraph, alg Algorithm, d *Decomposition) {
	t.Helper()
	if d == nil {
		t.Fatal("nil decomposition")
	}
	if d.TD == nil {
		t.Fatal("nil tree decomposition")
	}
	if err := d.TD.Validate(h); err != nil {
		t.Fatalf("invalid tree decomposition: %v", err)
	}
	if !alg.IsTreewidth() {
		if d.GHD == nil {
			t.Fatal("nil GHD for a ghw algorithm")
		}
		if err := d.GHD.Validate(h); err != nil {
			t.Fatalf("invalid GHD: %v", err)
		}
		if w := d.GHD.Width(); d.Width != w {
			t.Fatalf("reported width %d, but the returned GHD has width %d", d.Width, w)
		}
		if d.LowerBound > d.Width {
			t.Fatalf("lower bound %d above the returned width %d", d.LowerBound, d.Width)
		}
	}
	if d.Width < 0 {
		t.Fatalf("negative width %d", d.Width)
	}
	if d.Stats == nil {
		t.Fatal("nil Stats")
	}
	for _, p := range d.Stats.Snapshot().Timeline {
		if d.Width > p.Width {
			t.Fatalf("returned width %d, but the run's timeline reached %d", d.Width, p.Width)
		}
	}
}

// checkNoGoroutineLeak waits (briefly) for the goroutine count to return to
// its pre-run level, catching worker goroutines left behind a panic or stop.
func checkNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTimeoutHonored is the anytime contract under a wall-clock budget: every
// algorithm returns within a small multiple of the timeout with a validated
// best-so-far decomposition.
func TestTimeoutHonored(t *testing.T) {
	h := anytimeInstance()
	const timeout = 150 * time.Millisecond
	for _, alg := range Algorithms {
		t.Run(string(alg), func(t *testing.T) {
			start := time.Now()
			d, err := Decompose(h, Options{Algorithm: alg, Timeout: timeout, Seed: 1})
			elapsed := time.Since(start)
			if err != nil {
				t.Fatalf("Decompose: %v", err)
			}
			if elapsed > 10*timeout {
				t.Fatalf("took %v, over 10x the %v budget", elapsed, timeout)
			}
			validateAnytime(t, h, alg, d)
			if d.Interrupted {
				if d.Stop != budget.StopDeadline {
					t.Fatalf("Stop = %q, want %q", d.Stop, budget.StopDeadline)
				}
				if d.Exact {
					t.Fatal("an interrupted run must not claim exactness")
				}
			}
		})
	}
}

// TestNodeBudgetHonored is the same contract under a work-unit budget.
func TestNodeBudgetHonored(t *testing.T) {
	h := anytimeInstance()
	for _, alg := range Algorithms {
		t.Run(string(alg), func(t *testing.T) {
			d, err := Decompose(h, Options{Algorithm: alg, MaxNodes: 40, Seed: 1})
			if err != nil {
				t.Fatalf("Decompose: %v", err)
			}
			validateAnytime(t, h, alg, d)
			// 40 work units cannot finish this instance for any algorithm
			// (even greedy needs one per vertex elimination).
			if !d.Interrupted {
				t.Fatal("run with a 40-node budget was not interrupted")
			}
			if d.Stop != budget.StopNodes {
				t.Fatalf("Stop = %q, want %q", d.Stop, budget.StopNodes)
			}
		})
	}
}

// containmentRun is one algorithm at one worker count in the cancellation
// and panic tests.
type containmentRun struct {
	alg     Algorithm
	workers int
	name    string
}

// containmentRuns is every algorithm at Workers 0, plus the GA solvers at
// Workers 2, whose evaluations then run on scoring goroutines rather than
// the caller's: a cancel or panic there must be joined back just the same.
func containmentRuns() []containmentRun {
	var runs []containmentRun
	for _, alg := range Algorithms {
		runs = append(runs, containmentRun{alg, 0, string(alg)})
	}
	for _, alg := range []Algorithm{AlgGAGHW, AlgSAIGAGHW} {
		runs = append(runs, containmentRun{alg, 2, string(alg) + "/workers=2"})
	}
	return runs
}

// TestCancellation proves cooperative context cancellation for every
// algorithm: the cancel lands at the 20th budget checkpoint (forced to every
// tick via CheckEvery=1) and the run still returns a validated result.
func TestCancellation(t *testing.T) {
	h := anytimeInstance()
	for _, r := range containmentRuns() {
		alg := r.alg
		t.Run(r.name, func(t *testing.T) {
			defer faultinject.Reset()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			faultinject.Arm(faultinject.SiteCheckpoint, 20, cancel)
			before := runtime.NumGoroutine()
			d, err := Decompose(h, Options{Algorithm: alg, CheckEvery: 1, Ctx: ctx, Seed: 1, Workers: r.workers})
			if err != nil {
				t.Fatalf("Decompose: %v", err)
			}
			validateAnytime(t, h, alg, d)
			if !d.Interrupted {
				t.Fatal("canceled run not reported as interrupted")
			}
			if d.Stop != budget.StopCanceled {
				t.Fatalf("Stop = %q, want %q", d.Stop, budget.StopCanceled)
			}
			checkNoGoroutineLeak(t, before)
		})
	}
}

// TestPanicContainment injects a panic into each algorithm's hot path and
// checks it surfaces as a typed *budget.PanicError — no crash, no hang, no
// leaked worker goroutines. Together the pairs cover all three production
// injection sites.
func TestPanicContainment(t *testing.T) {
	h := anytimeInstance()
	sites := map[Algorithm]string{
		AlgAStarTW:  faultinject.SiteSearchExpand,
		AlgBBTW:     faultinject.SiteSearchExpand,
		AlgGATW:     faultinject.SiteGAEval,
		AlgAStarGHW: faultinject.SiteCover,
		AlgBBGHW:    faultinject.SiteSearchExpand,
		AlgGAGHW:    faultinject.SiteGAEval,
		AlgSAIGAGHW: faultinject.SiteGAEval,
		AlgGreedy:   faultinject.SiteCover,
		AlgHW:       faultinject.SiteSearchExpand,
		// The panic lands in whichever racing member hits the site third; the
		// containment contract is the portfolio's, not the member's.
		AlgPortfolio: faultinject.SiteSearchExpand,
	}
	for _, r := range containmentRuns() {
		alg := r.alg
		site, ok := sites[alg]
		if !ok {
			t.Fatalf("no injection site chosen for %s", alg)
		}
		t.Run(r.name+"/"+site, func(t *testing.T) {
			defer faultinject.Reset()
			faultinject.Arm(site, 3, func() { panic("injected fault") })
			before := runtime.NumGoroutine()
			d, err := Decompose(h, Options{Algorithm: alg, Seed: 1, Workers: r.workers})
			if err == nil {
				t.Fatalf("Decompose survived the injected panic (got width %d)", d.Width)
			}
			var pe *budget.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("error is %T (%v), want *budget.PanicError", err, err)
			}
			if pe.Value != "injected fault" {
				t.Fatalf("panic value = %v", pe.Value)
			}
			if len(pe.Stack) == 0 {
				t.Fatal("panic error lost its stack")
			}
			checkNoGoroutineLeak(t, before)
		})
	}
}

// TestHWDetkAnytime pins the hw-detk degradation contract: under a budget it
// returns a valid greedy GHD whose lower bound is the ghw-sound tw-ksc bound.
// The widths det-k-decomp refuted bound hw, not ghw: they stay in the trace
// as lower_bound events but never reach LowerBound. On Grid3D(4) a million
// nodes refute k = 2 (hw ≥ 3) while tw-ksc proves only 2, so a refutation
// leaking into LowerBound shows.
func TestHWDetkAnytime(t *testing.T) {
	for _, tc := range []struct {
		h       *hypergraph.Hypergraph
		nodes   int64
		refutes bool // the budget lets det-k refute a width above tw-ksc
	}{
		{anytimeInstance(), 40, false},
		{hypergraph.Grid3D(4), 1 << 20, true},
	} {
		d, err := Decompose(tc.h, Options{Algorithm: AlgHW, MaxNodes: tc.nodes, Seed: 1})
		if err != nil {
			t.Fatalf("Decompose: %v", err)
		}
		validateAnytime(t, tc.h, AlgHW, d)
		if !d.Interrupted || d.Exact {
			t.Fatalf("nodes %d: Interrupted=%v Exact=%v, want interrupted inexact result", tc.nodes, d.Interrupted, d.Exact)
		}
		if d.LowerBound < 1 {
			t.Fatalf("nodes %d: LowerBound = %d, want >= 1", tc.nodes, d.LowerBound)
		}
		refuted := 0
		for _, p := range d.Stats.Snapshot().LowerBounds {
			refuted = max(refuted, p.Width)
		}
		if tc.refutes && refuted <= d.LowerBound {
			t.Fatalf("nodes %d: refutations reached hw >= %d, LowerBound %d: want the refutations above the ghw bound", tc.nodes, refuted, d.LowerBound)
		}
	}
}

// TestGADefaultsPerField pins the satellite fix: setting only PopulationSize
// must still produce a runnable config (previously the zero TournamentSize
// made ga.Run panic).
func TestGADefaultsPerField(t *testing.T) {
	h := hypergraph.Grid2D(4)
	d, err := Decompose(h, Options{
		Algorithm: AlgGAGHW,
		Seed:      1,
		GA:        ga.Config{PopulationSize: 40, MaxIterations: 20},
	})
	if err != nil {
		t.Fatalf("Decompose with population-only GA config: %v", err)
	}
	validateAnytime(t, h, AlgGAGHW, d)
}

// TestInterruptedExactSearchStaysSound checks that an exact search cut off
// by a node budget reports consistent bounds: LowerBound <= Width.
func TestInterruptedExactSearchStaysSound(t *testing.T) {
	h := anytimeInstance()
	for _, alg := range []Algorithm{AlgAStarTW, AlgBBTW, AlgAStarGHW, AlgBBGHW} {
		d, err := Decompose(h, Options{Algorithm: alg, MaxNodes: 500, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if d.LowerBound > d.Width {
			t.Fatalf("%s: LowerBound %d > Width %d", alg, d.LowerBound, d.Width)
		}
	}
}

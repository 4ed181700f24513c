package bench

import (
	"reflect"
	"testing"
	"time"

	"hypertree/internal/csp"
	"hypertree/internal/csp/engine"
)

// refSolve answers one pinned query the pre-engine way: restrict the pinned
// variable's domain on a shallow CSP copy and run the full SolveFromTD pass
// (bag materialization + Yannakakis) from scratch.
func (s *queryBenchSetup) refSolve(pins []engine.Pin) []csp.Value {
	r := &csp.CSP{
		NumVars:     s.c.NumVars,
		Domains:     append([][]csp.Value(nil), s.c.Domains...),
		Constraints: s.c.Constraints,
		VarNames:    s.c.VarNames,
	}
	for _, p := range pins {
		r.Domains[p.Var] = []csp.Value{p.Val}
	}
	return csp.SolveFromTD(r, s.td)
}

// TestQueryBenchSetupAgreesWithReference pins the query benchmark's two
// measured paths to each other on a real registry instance: the compiled
// plan and the per-query SolveFromTD reference must return identical
// assignments for the canonical workload (both sides are deterministic, so
// exact equality — the same guarantee the engine's own differential tests
// establish on random CSPs, here on the benchmark's instances).
func TestQueryBenchSetupAgreesWithReference(t *testing.T) {
	s, err := newQueryBenchSetup("adder_25")
	if err != nil {
		t.Fatal(err)
	}
	cu := s.plan.NewCursor()
	for i := 0; i < 64; i++ {
		pins := s.queryPin(i)
		want := s.refSolve(pins)
		got, ok := cu.Solve(pins)
		if ok != (want != nil) {
			t.Fatalf("query %d: sat = %v, reference %v", i, ok, want != nil)
		}
		if ok && !reflect.DeepEqual(append([]int(nil), got...), want) {
			t.Fatalf("query %d: plan %v != reference %v", i, got, want)
		}
	}
}

// TestMeasureQueryLatency sanity-checks the percentile math on a tiny batch.
func TestMeasureQueryLatency(t *testing.T) {
	s, err := newQueryBenchSetup("adder_25")
	if err != nil {
		t.Fatal(err)
	}
	e := measureQueryLatency(s, 100)
	if e.Iterations != 100 || e.NsPerOp <= 0 || e.QPS <= 0 {
		t.Fatalf("entry = %+v, want positive measurements over 100 queries", e)
	}
	if !(e.P50NS <= e.P95NS && e.P95NS <= e.P99NS) {
		t.Fatalf("percentiles not monotone: P50 %v P95 %v P99 %v", e.P50NS, e.P95NS, e.P99NS)
	}
}

// TestCompiledPlanBeatsReference is the compiled-plan serving claim: a
// pinned query answered from the plan must beat the per-query reference
// pass (refSolve) by at least 10x, or the engine is not earning its compile
// step. The measured margins are two to three orders of magnitude (104x on
// adder_25 and 1,778x on grid2d_10 in the last BENCH_ghw.json rows that
// timed the reference), so the floor has ample noise headroom. Each side
// is the fastest of three timings of the same pinned batch.
func TestCompiledPlanBeatsReference(t *testing.T) {
	const batch, reps = 8, 100
	fastest := func(fn func()) time.Duration {
		best := time.Duration(-1)
		for trial := 0; trial < 3; trial++ {
			t0 := time.Now()
			fn()
			if d := time.Since(t0); best < 0 || d < best {
				best = d
			}
		}
		return best
	}
	for _, name := range QueryBenchInstances {
		s, err := newQueryBenchSetup(name)
		if err != nil {
			t.Fatal(err)
		}
		ref := fastest(func() {
			for i := 0; i < batch; i++ {
				s.refSolve(s.queryPin(i))
			}
		})
		cu := s.plan.NewCursor()
		plan := fastest(func() {
			for r := 0; r < reps; r++ {
				for i := 0; i < batch; i++ {
					cu.Solve(s.queryPin(i))
				}
			}
		}) / reps
		t.Logf("%s: %d pinned queries: reference %v, compiled plan %v (%.0fx)", name, batch, ref, plan, float64(ref)/float64(plan))
		if plan*10 > ref {
			t.Errorf("%s: compiled plan is only %.1fx faster than per-query SolveFromTD (want >= 10x)", name, float64(ref)/float64(plan))
		}
	}
}

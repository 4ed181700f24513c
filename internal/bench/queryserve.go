// The query-serving benchmark: the compiled join-tree engine's
// decompose-once-serve-many contract, measured. Each instance's constraint
// hypergraph becomes a binary-domain CSP (one sparse constraint per
// hyperedge), decomposed once with the greedy solver; then the modes measure
// compiling it into an engine.Plan, answering parameterized queries from the
// plan, and served-latency percentiles at 1k/10k/100k-query scale.
package bench

import (
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"hypertree/internal/core"
	"hypertree/internal/csp"
	"hypertree/internal/csp/engine"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
)

// QueryBenchInstances are the instances the query-serving modes run on: the
// thesis's 10x10 grid (moderate width, many bags) and an adder circuit
// (small width, long join path).
var QueryBenchInstances = []string{"grid2d_10", "adder_25"}

// queryLatScales are the batch sizes of the latency-percentile modes.
var queryLatScales = []struct {
	name string
	n    int
}{
	{"query-lat-1k", 1_000},
	{"query-lat-10k", 10_000},
	{"query-lat-100k", 100_000},
}

// queryBenchSetup is one instance's prepared serving state: the CSP, the
// decomposition (paid once, outside every measured op except query-compile)
// and the compiled plan.
type queryBenchSetup struct {
	c    *csp.CSP
	td   *decomp.TreeDecomposition
	plan *engine.Plan
}

// newQueryBenchSetup builds the CSP for a registry instance and decomposes
// it once with the greedy solver (deterministic for the fixed seed).
func newQueryBenchSetup(name string) (*queryBenchSetup, error) {
	inst, err := Hyper(name)
	if err != nil {
		return nil, err
	}
	h := inst.Build()
	c := cspFromHypergraph(h)
	d, err := core.Decompose(h, core.Options{Algorithm: core.AlgGreedy, Seed: 1})
	if err != nil {
		return nil, fmt.Errorf("bench: decomposing %s: %w", name, err)
	}
	plan, err := engine.CompileBudget(c, d.TD, nil)
	if err != nil {
		return nil, fmt.Errorf("bench: compiling %s: %w", name, err)
	}
	return &queryBenchSetup{c: c, td: d.TD, plan: plan}, nil
}

// cspFromHypergraph turns a hypergraph into a binary-domain CSP: one
// constraint per hyperedge allowing the assignments with at most one 1 in
// the scope (sparse relations with non-trivial joins; always satisfiable by
// all-zeros).
func cspFromHypergraph(h *hypergraph.Hypergraph) *csp.CSP {
	c := &csp.CSP{NumVars: h.N(), Domains: make([][]csp.Value, h.N())}
	for v := range c.Domains {
		c.Domains[v] = []csp.Value{0, 1}
	}
	for ei := 0; ei < h.M(); ei++ {
		scope := h.Edge(ei)
		tuples := make([][]csp.Value, 0, len(scope)+1)
		tuples = append(tuples, make([]csp.Value, len(scope))) // all zero
		for hot := range scope {
			t := make([]csp.Value, len(scope))
			t[hot] = 1
			tuples = append(tuples, t)
		}
		c.AddConstraint(scope, tuples)
	}
	return c
}

// queryPin is the i-th query of the canonical workload: pin one variable,
// cycling through variables and values so probes hit varied index buckets.
func (s *queryBenchSetup) queryPin(i int) []engine.Pin {
	return []engine.Pin{{Var: i % s.c.NumVars, Val: csp.Value(i % 2)}}
}

// runQueryBench appends the query-serving modes for all QueryBenchInstances
// to the report.
func runQueryBench(report *BenchReport, logf func(format string, args ...interface{})) error {
	for _, name := range QueryBenchInstances {
		s, err := newQueryBenchSetup(name)
		if err != nil {
			return err
		}
		width := s.plan.Stats().Width

		// query-compile: the one-time cost the plan cache amortizes — bag
		// materialization, full reduction, index build (decomposition held
		// fixed).
		rc := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := engine.CompileBudget(s.c, s.td, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		addQueryEntry(report, logf, name, "query-compile", rc, width, 0)

		// query-serial: one pinned query on the compiled plan, one cursor.
		cu := s.plan.NewCursor()
		rs := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cu.Solve(s.queryPin(i))
			}
		})
		addQueryEntry(report, logf, name, "query-serial", rs, width, 0)

		// query-par: the same workload under b.RunParallel, one cursor per
		// goroutine on the shared immutable plan — the zero-synchronization
		// serving claim, measured.
		gomaxprocs := runtime.GOMAXPROCS(0)
		par := 1
		if gomaxprocs < parBenchWorkers {
			// SetParallelism multiplies GOMAXPROCS; keep at least the
			// fixed worker count of the other -par modes on small machines.
			par = (parBenchWorkers + gomaxprocs - 1) / gomaxprocs
		}
		rp := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			b.SetParallelism(par)
			b.RunParallel(func(pb *testing.PB) {
				cu := s.plan.NewCursor()
				i := 0
				for pb.Next() {
					cu.Solve(s.queryPin(i))
					i++
				}
			})
		})
		addQueryEntry(report, logf, name, "query-par", rp, width, par*gomaxprocs)

		// Latency percentiles at increasing query scale: every query timed
		// individually on one cursor, the percentile rows the serving
		// benchmark reports.
		for _, scale := range queryLatScales {
			entry := measureQueryLatency(s, scale.n)
			entry.Instance, entry.Mode, entry.Width = name, scale.name, width
			report.Entries = append(report.Entries, entry)
			logf("BenchmarkQueryServe/%s/%s\t%d queries\t%.0f ns/op\tP50 %.0f\tP95 %.0f\tP99 %.0f\t%.0f qps\n",
				name, scale.name, entry.Iterations, entry.NsPerOp, entry.P50NS, entry.P95NS, entry.P99NS, entry.QPS)
		}
	}
	return nil
}

// addQueryEntry folds one testing.Benchmark result into the report.
func addQueryEntry(report *BenchReport, logf func(string, ...interface{}), instance, mode string, r testing.BenchmarkResult, width, workers int) {
	report.Entries = append(report.Entries, BenchEntry{
		Instance:    instance,
		Mode:        mode,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Width:       width,
		Workers:     workers,
	})
	logf("BenchmarkQueryServe/%s/%s\t%s\n", instance, mode, r.String()+"\t"+r.MemString())
}

// RunQueryDemo is the `experiments -query-demo` walkthrough: decompose one
// registry instance, compile the plan, and serve a short query workload,
// printing the compile-once/serve-many economics in human-readable form.
func RunQueryDemo(instance string, logf func(format string, args ...interface{})) error {
	t0 := time.Now()
	s, err := newQueryBenchSetup(instance)
	if err != nil {
		return err
	}
	setup := time.Since(t0)
	st := s.plan.Stats()
	logf("query demo: %s -> CSP with %d vars, %d constraints\n", instance, s.c.NumVars, len(s.c.Constraints))
	logf("decompose (greedy) + compile: %v; plan: %d nodes, %d rows (max bag %d), width %d, satisfiable=%v\n",
		setup.Round(time.Microsecond), st.Nodes, st.Rows, st.MaxBagRows, st.Width, st.Satisfiable)

	const n = 10_000
	e := measureQueryLatency(s, n)
	logf("served %d pinned solve queries from one cursor: %.0f ns/query mean, P50 %.0f ns, P95 %.0f ns, P99 %.0f ns, %.0f queries/s\n",
		n, e.NsPerOp, e.P50NS, e.P95NS, e.P99NS, e.QPS)
	return nil
}

// measureQueryLatency serves n pinned queries sequentially from one cursor,
// timing each, and reports mean ns/op plus P50/P95/P99 and queries/second.
func measureQueryLatency(s *queryBenchSetup, n int) BenchEntry {
	cu := s.plan.NewCursor()
	lat := make([]time.Duration, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		cu.Solve(s.queryPin(i))
		lat[i] = time.Since(t0)
	}
	wall := time.Since(start)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(p float64) float64 {
		idx := int(p * float64(n-1))
		return float64(lat[idx].Nanoseconds())
	}
	return BenchEntry{
		Iterations: n,
		NsPerOp:    float64(wall.Nanoseconds()) / float64(n),
		P50NS:      pct(0.50),
		P95NS:      pct(0.95),
		P99NS:      pct(0.99),
		QPS:        float64(n) / wall.Seconds(),
	}
}

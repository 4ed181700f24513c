package engine

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"hypertree/internal/budget"
	"hypertree/internal/core"
	"hypertree/internal/csp"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
)

// circuitCSP is the CSP the serving benchmark's query-cold workload sends:
// a random circuit over signals with one constraint per gate allowing at
// most one 1 among its signals, on the boolean domain.
func circuitCSP(signals, gates int, seed int64) *csp.CSP {
	h := hypergraph.RandomCircuit(signals, gates, seed)
	c := csp.New(h.N(), []csp.Value{0, 1})
	for e := 0; e < h.M(); e++ {
		scope := h.Edge(e)
		tuples := [][]csp.Value{make([]csp.Value, len(scope))}
		for hot := range scope {
			t := make([]csp.Value, len(scope))
			t[hot] = 1
			tuples = append(tuples, t)
		}
		c.AddConstraint(scope, tuples)
	}
	return c
}

// greedyGHD is the complete GHD the daemon compiles for a /query request
// with algo=greedy and its default seed.
func greedyGHD(tb testing.TB, c *csp.CSP) *decomp.GHD {
	tb.Helper()
	h := c.Hypergraph()
	d, err := core.Decompose(h, core.Options{Algorithm: core.AlgGreedy, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	if d.GHD == nil {
		tb.Fatal("greedy returned no GHD")
	}
	if !d.GHD.IsComplete(h) {
		d.GHD.Complete(h)
	}
	return d.GHD
}

var (
	benchPlan   *Plan
	benchTables []*csp.Table
)

// BenchmarkCompileCircuitGHD measures the compile layer of a query-cold
// request in process: 24-signal circuit CSPs, their greedy GHDs, and the
// daemon's default compile budget (10 s, 50M steps). Decomposition happens
// in set-up; each op compiles one plan, cycling through the instances.
// total is a whole compile (CompileGHDBudget); tables is its first layer
// alone, csp.GHDTables; build is the rest, reduction, grouping, packing
// and the count DP, on tables made in set-up.
func BenchmarkCompileCircuitGHD(b *testing.B) {
	const instances = 32
	rng := rand.New(rand.NewSource(1))
	cs := make([]*csp.CSP, instances)
	gs := make([]*decomp.GHD, instances)
	tables := make([][]*csp.Table, instances)
	for i := range cs {
		cs[i] = circuitCSP(24, 26, rng.Int63())
		gs[i] = greedyGHD(b, cs[i])
		var err error
		if tables[i], err = csp.GHDTables(cs[i], gs[i], nil); err != nil {
			b.Fatal(err)
		}
	}
	newBudget := func() *budget.B {
		return budget.New(context.Background(), budget.Limits{Timeout: 10 * time.Second, MaxNodes: 50_000_000})
	}
	b.Run("total", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := i % instances
			p, err := CompileGHDBudget(cs[k], gs[k], newBudget())
			if err != nil {
				b.Fatal(err)
			}
			benchPlan = p
		}
	})
	b.Run("tables", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := i % instances
			t, err := csp.GHDTables(cs[k], gs[k], newBudget())
			if err != nil {
				b.Fatal(err)
			}
			benchTables = t
		}
	})
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := i % instances
			g := gs[k]
			p, err := build(cs[k], tables[k], g.Parent, g.Root, g.Width(), newBudget())
			if err != nil {
				b.Fatal(err)
			}
			benchPlan = p
		}
	})
}

package csp

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"hypertree/internal/decomp"
	"hypertree/internal/elim"
	"hypertree/internal/hypergraph"
)

// ghdTablesRef builds GHD node tables without early projection: the
// string-keyed joinRef folded over the whole λ-set, then projectRef onto
// the bag, which keeps each tuple's first occurrence.
func ghdTablesRef(c *CSP, g *decomp.GHD) []*Table {
	tables := make([]*Table, len(g.Bags))
	for i, bag := range g.Bags {
		if len(bag) == 0 {
			tables[i] = identity()
			continue
		}
		t := identity()
		for _, e := range g.Lambdas[i] {
			t = joinRef(t, domainTable(c, &c.Constraints[e]))
		}
		tables[i] = projectRef(t, bag)
	}
	return tables
}

// checkGHDTables asserts that every GHDTables table equals its reference,
// columns and row order included.
func checkGHDTables(t *testing.T, c *CSP, g *decomp.GHD) {
	t.Helper()
	got, err := GHDTables(c, g, nil)
	if err != nil {
		t.Fatalf("GHDTables: %v", err)
	}
	want := ghdTablesRef(c, g)
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("node %d (bag %v, λ %v): GHDTables =\n%+v\nreference\n%+v", i, g.Bags[i], g.Lambdas[i], got[i], want[i])
		}
	}
}

// withDuplicateTuples returns c with about a third of every constraint's
// tuples repeated at random positions, plus an occasional tuple outside the
// domains (domainTable drops it).
func withDuplicateTuples(c *CSP, rng *rand.Rand) *CSP {
	d := &CSP{NumVars: c.NumVars, Domains: c.Domains}
	for _, con := range c.Constraints {
		tuples := append([][]Value(nil), con.Tuples...)
		for k := len(con.Tuples) / 3; k >= 0 && len(con.Tuples) > 0; k-- {
			dup := con.Tuples[rng.Intn(len(con.Tuples))]
			at := rng.Intn(len(tuples) + 1)
			tuples = append(tuples[:at], append([][]Value{dup}, tuples[at:]...)...)
		}
		if rng.Intn(4) == 0 {
			out := make([]Value, len(con.Scope))
			out[0] = 9
			tuples = append(tuples, out)
		}
		d.AddConstraint(con.Scope, tuples)
	}
	return d
}

// wideGHD is a complete GHD of c on a random tree decomposition whose
// λ-sets are wider than any cover needs: every constraint meeting the bag,
// sometimes one sharing nothing with it, in random order. Later relations
// then need variables outside the bag, which early projection must keep.
func wideGHD(c *CSP, rng *rand.Rand) *decomp.GHD {
	h := c.Hypergraph()
	td := elim.TDFromOrdering(h, rng.Perm(c.NumVars))
	g := &decomp.GHD{TreeDecomposition: *td, Lambdas: make([][]int, len(td.Bags))}
	for i, bag := range td.Bags {
		var lambda []int
		for e, con := range c.Constraints {
			meets := slices.ContainsFunc(con.Scope, func(v int) bool { return slices.Contains(bag, v) })
			if meets || rng.Intn(8) == 0 {
				lambda = append(lambda, e)
			}
		}
		rng.Shuffle(len(lambda), func(a, b int) { lambda[a], lambda[b] = lambda[b], lambda[a] })
		g.Lambdas[i] = lambda
	}
	g.Complete(h)
	return g
}

// circuitCSP is a random circuit over signals as a boolean CSP with one
// constraint per gate allowing at most one 1 among its signals.
func circuitCSP(signals, gates int, seed int64) *CSP {
	h := hypergraph.RandomCircuit(signals, gates, seed)
	c := New(h.N(), []Value{0, 1})
	for e := 0; e < h.M(); e++ {
		scope := h.Edge(e)
		tuples := [][]Value{make([]Value, len(scope))}
		for hot := range scope {
			t := make([]Value, len(scope))
			t[hot] = 1
			tuples = append(tuples, t)
		}
		c.AddConstraint(scope, tuples)
	}
	return c
}

// Property: early projection changes no table. Each GHDTables table equals
// the projection of the whole λ-set's join with first occurrences kept, on
// random CSPs with duplicate tuples and wide λ-sets, on 24-signal circuit
// CSPs with min-fill GHDs, and under a constant row hash.
func TestGHDTablesEqualJoinThenProject(t *testing.T) {
	run := func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		wide := 0
		for i := 0; i < 150; i++ {
			c := randomCSP(rng)
			if i%2 == 1 {
				c = withDuplicateTuples(c, rng)
			}
			g := wideGHD(c, rng)
			if err := g.Validate(c.Hypergraph()); err != nil {
				t.Fatalf("wideGHD built an invalid GHD: %v", err)
			}
			for _, l := range g.Lambdas {
				if len(l) >= 3 {
					wide++
				}
			}
			checkGHDTables(t, c, g)
		}
		if wide == 0 {
			t.Fatal("no node with |λ| ≥ 3 was generated")
		}
		for i := 0; i < 12; i++ {
			c := circuitCSP(24, 26, rng.Int63())
			h := c.Hypergraph()
			g, err := elim.GHDFromOrdering(h, elim.MinFillOrdering(h.PrimalGraph(), rng), false, rng)
			if err != nil {
				t.Fatal(err)
			}
			g.Complete(h)
			checkGHDTables(t, c, g)
		}
	}
	t.Run("hash", run)
	t.Run("constant hash", func(t *testing.T) {
		defer SetRowHash(func([]Value, []int) uint64 { return 0 })()
		run(t)
	})
}

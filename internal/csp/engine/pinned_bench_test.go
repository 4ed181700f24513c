package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"hypertree/internal/csp"
	"hypertree/internal/hypergraph"
)

// hotQuery is one query of a query-hot batch.
type hotQuery struct {
	op   string // solve | count | enumerate
	pins []Pin
}

var benchSolutions [][]csp.Value

// BenchmarkPinnedBatch measures the query layer of a query-hot request in
// process: the serving benchmark's sixteen query-hot plans (24-signal
// circuit CSPs drawn from seed 2007, greedy GHDs), and its batches of eight
// queries (3 solve, 3 count, 2 enumerate with limit 2), each with 1 or 2
// pins. Each op answers one batch on a fresh cursor, as the daemon does per
// request, cycling through the plans and their batches.
func BenchmarkPinnedBatch(b *testing.B) {
	const plans, batchesPerPlan, signals = 16, 16, 24
	fixed := rand.New(rand.NewSource(2007))
	seen := make(map[string]bool)
	ps := make([]*Plan, 0, plans)
	for len(ps) < plans {
		seed := fixed.Int63()
		// The serving benchmark draws again when a circuit repeats.
		key := fmt.Sprint(hypergraph.RandomCircuit(signals, 26, seed).Edges())
		if seen[key] {
			continue
		}
		seen[key] = true
		c := circuitCSP(signals, 26, seed)
		p, err := CompileGHDBudget(c, greedyGHD(b, c), nil)
		if err != nil {
			b.Fatal(err)
		}
		ps = append(ps, p)
	}
	rng := rand.New(rand.NewSource(1))
	ops := [...]string{"solve", "count", "enumerate", "solve", "count", "enumerate", "solve", "count"}
	batches := make([][]hotQuery, plans*batchesPerPlan)
	for i := range batches {
		batch := make([]hotQuery, len(ops))
		for j, op := range ops {
			// 1 or 2 pins; a variable drawn twice keeps its last value.
			var pins []Pin
			for k := 1 + rng.Intn(2); k > 0; k-- {
				pin := Pin{Var: rng.Intn(signals), Val: rng.Intn(2)}
				if len(pins) == 1 && pins[0].Var == pin.Var {
					pins[0] = pin
				} else {
					pins = append(pins, pin)
				}
			}
			batch[j] = hotQuery{op: op, pins: pins}
		}
		batches[i] = batch
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(batches)
		cu := ps[k%plans].NewCursor()
		for _, q := range batches[k] {
			switch q.op {
			case "solve":
				cu.Solve(q.pins)
			case "count":
				cu.CountExact(q.pins)
			case "enumerate":
				benchSolutions = cu.Enumerate(2, q.pins)
			}
		}
	}
}

package setcover_test

import (
	"math/rand"
	"testing"

	"hypertree/internal/elim"
	"hypertree/internal/hypergraph"
	"hypertree/internal/setcover"
)

// keptBags returns the bags greedy's exit covers on h: the min-fill
// ordering's elimination tree, compacted to its maximal bags, up to maxBag
// vertices each.
func keptBags(h *hypergraph.Hypergraph, maxBag int) [][]int {
	order := elim.MinFillOrderingBudget(h, rand.New(rand.NewSource(1)), nil)
	var bags [][]int
	for _, bag := range elim.TDFromOrdering(h, order).Compact().Bags {
		if len(bag) <= maxBag {
			bags = append(bags, bag)
		}
	}
	return bags
}

// BenchmarkExactCover measures one exact cover of an exit bag, memoization
// off, on a warmed Scratch: query-cold's bags (the kept bags of 64
// 24-signal circuits) and c880's (RandomCircuit(383, 443, 4005)) kept bags
// of at most 40 vertices; its wider bags take from milliseconds to more
// than a minute each.
func BenchmarkExactCover(b *testing.B) {
	type corpus struct {
		h    *hypergraph.Hypergraph
		bags [][]int
	}
	var cold []corpus
	for seed := int64(1); seed <= 64; seed++ {
		h := hypergraph.RandomCircuit(24, 26, seed)
		cold = append(cold, corpus{h, keptBags(h, h.N())})
	}
	c880 := hypergraph.RandomCircuit(383, 443, 4005)
	for _, bc := range []struct {
		name    string
		corpora []corpus
	}{
		{"query-cold", cold},
		{"c880", []corpus{{c880, keptBags(c880, 40)}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			type query struct {
				eng *setcover.Engine
				sc  *setcover.Scratch
				bag []int
			}
			var qs []query
			for _, c := range bc.corpora {
				eng := setcover.NewEngine(c.h, 0)
				sc := eng.NewScratch()
				for _, bag := range c.bags {
					eng.ExactCover(sc, bag, nil)
					qs = append(qs, query{eng, sc, bag})
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				q.eng.ExactCover(q.sc, q.bag, nil)
			}
		})
	}
}

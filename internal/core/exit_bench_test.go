package core

import (
	"sort"
	"testing"
	"time"

	"hypertree/internal/hypergraph"
)

// BenchmarkPortfolioExit measures how late a deadline-bound race returns:
// the default portfolio on 60-signal circuits (the decompose-deadline
// shape, one seed per iteration, cycling through 40) at a 20 ms deadline.
// It reports the p50 and p90 of elapsed − deadline in milliseconds.
func BenchmarkPortfolioExit(b *testing.B) {
	const deadline = 20 * time.Millisecond
	inputs := make([]*hypergraph.Hypergraph, 40)
	for i := range inputs {
		inputs[i] = hypergraph.RandomCircuit(60, 62, int64(i+1))
	}
	late := make([]float64, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := Decompose(inputs[i%len(inputs)], Options{Algorithm: AlgPortfolio, Timeout: deadline, Seed: 1}); err != nil {
			b.Fatal(err)
		}
		late = append(late, float64(time.Since(start)-deadline)/float64(time.Millisecond))
	}
	sort.Float64s(late)
	b.ReportMetric(late[len(late)/2], "p50-overshoot-ms")
	b.ReportMetric(late[len(late)*9/10], "p90-overshoot-ms")
}

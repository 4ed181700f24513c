package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a tail percentile before the
// benchmark reports it: with fewer, the "p90" is one or two unlucky requests.
const minTail = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1); xs need
// not be sorted and is not modified. A tail quantile (q > 0.5) is refused
// unless at least minTail samples lie beyond its rank. Failed requests enter
// as +Inf, so they count as missing every latency percentile.
func percentile(xs []float64, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %g outside (0, 1)", q)
	}
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", q*100)
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if q > 0.5 && n-rank < minTail {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it; need %d", q*100, n, n-rank, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is percentile(xs, 0.5) for callers that have checked xs is not
// empty.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

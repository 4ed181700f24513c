package csp

import (
	"math"

	"hypertree/internal/decomp"
)

// CountFromTD counts all complete consistent assignments of c by dynamic
// programming over a tree decomposition — the "computing all solutions"
// capability the thesis attributes to decomposition methods (§2.2.2, §2.4),
// in counting form. The work is O(nodes · d^(width+1)); by the
// connectedness condition every complete assignment decomposes uniquely
// into compatible bag tuples, so each is counted exactly once.
// Variables in no bag contribute a factor |domain|. A count too large for
// an int saturates at math.MaxInt instead of wrapping.
//
// test-only: the reference count of the csp and csp/engine tests.
func CountFromTD(c *CSP, td *decomp.TreeDecomposition) int {
	tables, err := TDTables(c, td, nil)
	if err != nil {
		panic(err)
	}
	children := td.Children()
	order := TopDownOrder(td.Parent, td.Root)

	// counts[node][rowIdx] = number of assignments of the subtree's
	// variables (minus the bag's own, which are pinned by the row).
	counts := make([][]int, len(td.Bags))
	// Process bottom-up.
	for i := len(order) - 1; i >= 0; i-- {
		node := order[i]
		t := tables[node]
		counts[node] = make([]int, len(t.Rows))
		for ri, row := range t.Rows {
			total := 1
			for _, ch := range children[node] {
				sub := 0
				ct := tables[ch]
				ai, bi := sharedColumns(t, ct)
				for cri, crow := range ct.Rows {
					if compatible(row, crow, ai, bi) {
						sub, _ = SatAdd(sub, counts[ch][cri])
					}
				}
				total, _ = SatMul(total, sub)
				if total == 0 {
					break
				}
			}
			counts[node][ri] = total
		}
	}
	total := 0
	for _, cnt := range counts[td.Root] {
		total, _ = SatAdd(total, cnt)
	}
	// Variables appearing in no bag are unconstrained (a valid TD covers
	// every constraint scope, so such variables are in no constraint).
	inBag := make([]bool, c.NumVars)
	for _, bag := range td.Bags {
		for _, v := range bag {
			inBag[v] = true
		}
	}
	for v := 0; v < c.NumVars; v++ {
		if !inBag[v] {
			total, _ = SatMul(total, len(c.Domains[v]))
		}
	}
	return total
}

// compatible reports whether rowA and rowB agree on their shared columns.
//
// test-only: CountFromTD's join test.
func compatible(rowA, rowB []Value, ai, bi []int) bool {
	for k := range ai {
		if rowA[ai[k]] != rowB[bi[k]] {
			return false
		}
	}
	return true
}

// Saturating arithmetic for the solution-count DPs, here and in the
// compiled query engine. Counts are products of subtree counts and |domain|
// factors, so realistic instances overflow int long before they exhaust
// memory; wrapping would serve negative or nonsense counts as answers. Both
// helpers assume non-negative operands (counts never go negative) and
// report whether they clamped. On non-negative operands a saturated result
// is exactly min(true value, math.MaxInt) whatever the evaluation order,
// so every DP built on them returns the same count.

// SatAdd returns a+b clamped to math.MaxInt, and whether it clamped.
func SatAdd(a, b int) (int, bool) {
	if a > math.MaxInt-b {
		return math.MaxInt, true
	}
	return a + b, false
}

// SatMul returns a*b clamped to math.MaxInt, and whether it clamped.
func SatMul(a, b int) (int, bool) {
	if a == 0 || b == 0 {
		return 0, false
	}
	if a > math.MaxInt/b {
		return math.MaxInt, true
	}
	return a * b, false
}

package setcover

import (
	"math/rand"
	"testing"
)

// randomInstance draws a universe and candidate sets, duplicate-free within
// each set (the hyperedge shape this package is used with).
func randomInstance(rng *rand.Rand) (universe []int, sets [][]int) {
	nu := 1 + rng.Intn(10)
	seen := map[int]bool{}
	for len(universe) < nu {
		v := rng.Intn(25)
		if !seen[v] {
			seen[v] = true
			universe = append(universe, v)
		}
	}
	m := rng.Intn(12)
	for i := 0; i < m; i++ {
		k := 1 + rng.Intn(6)
		es := map[int]bool{}
		var s []int
		for len(s) < k {
			v := rng.Intn(25)
			if !es[v] {
				es[v] = true
				s = append(s, v)
			}
		}
		sets = append(sets, s)
	}
	return universe, sets
}

// The Engine's greedy cover must reproduce the reference exactly — same
// chosen indices, same rng stream consumption — for nil and seeded rngs.
func TestGreedyMatchesReference(t *testing.T) {
	meta := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		universe, sets := randomInstance(meta)
		eng, sc := coverEngine(universe, sets)
		got := eng.GreedyCover(sc, universe, nil)
		want := greedyRef(universe, sets, nil)
		if !equalIntSlices(got, want) {
			t.Fatalf("nil-rng mismatch: got %v, want %v (u=%v sets=%v)", got, want, universe, sets)
		}
		seed := meta.Int63()
		got = eng.GreedyCover(sc, universe, rand.New(rand.NewSource(seed)))
		want = greedyRef(universe, sets, rand.New(rand.NewSource(seed)))
		if !equalIntSlices(got, want) {
			t.Fatalf("seeded mismatch: got %v, want %v (u=%v sets=%v)", got, want, universe, sets)
		}
	}
}

// The Engine's branch and bound must agree with the reference on the
// optimum size — including coverability and cap censoring. The chosen sets
// may differ (ties), so sizes and validity are compared, not indices.
func TestExactMatchesReference(t *testing.T) {
	meta := rand.New(rand.NewSource(22))
	for trial := 0; trial < 300; trial++ {
		universe, sets := randomInstance(meta)
		eng, sc := coverEngine(universe, sets)
		got, cut := eng.ExactCover(sc, universe, nil)
		want, wantCapped := exactBBRef(universe, sets, 0)
		if cut || wantCapped {
			t.Fatalf("uncapped run reported cut or capped (u=%v)", universe)
		}
		if (got == nil) != (want == nil) {
			t.Fatalf("coverability mismatch: got %v, want %v (u=%v sets=%v)", got, want, universe, sets)
		}
		if got != nil {
			if len(got) != len(want) {
				t.Fatalf("optimum mismatch: |got|=%d |want|=%d (u=%v sets=%v)", len(got), len(want), universe, sets)
			}
			if !Covers(universe, sets, got) {
				t.Fatalf("ExactCover returned a non-cover %v (u=%v sets=%v)", got, universe, sets)
			}
		}
		cap := 1 + meta.Intn(4)
		if gotC, wantC := eng.ExactSizeCapped(sc, universe, cap, nil), refExactSize(universe, sets, cap); gotC != wantC {
			t.Fatalf("cap=%d mismatch: got %d, want %d (u=%v sets=%v)", cap, gotC, wantC, universe, sets)
		}
	}
}

// refExactSize is the reference's answer in ExactSizeCapped's terms: the
// minimum cover size, cap when a positive cap censors it, -1 when the
// universe is uncoverable.
func refExactSize(universe []int, sets [][]int, cap int) int {
	chosen, capped := exactBBRef(universe, sets, cap)
	switch {
	case capped:
		return cap
	case chosen == nil:
		return -1
	}
	return len(chosen)
}

func equalIntSlices(a, b []int) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Engine hot path: repeated cached and uncached bag queries.
func BenchmarkEngineGreedySizeCached(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	h := randomHypergraph(rng, 120, 160, 5)
	bags := make([][]int, 64)
	for i := range bags {
		bags[i] = randomBag(rng, 120)
	}
	eng := NewEngine(h, -1)
	sc := eng.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.GreedySize(sc, bags[i%len(bags)], nil)
	}
}

func BenchmarkEngineGreedySizeUncached(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	h := randomHypergraph(rng, 120, 160, 5)
	bags := make([][]int, 64)
	for i := range bags {
		bags[i] = randomBag(rng, 120)
	}
	eng := NewEngine(h, 0)
	sc := eng.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.GreedySize(sc, bags[i%len(bags)], nil)
	}
}
